package tlv

import (
	"errors"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/stats"
)

// Frozen TLV field numbers for the store record envelope — the v3 twin
// of the JSON envelope {v, id, result}.
const (
	fEnvVersion = 1 // uvarint, must equal RecordVersion
	fEnvID      = 2 // string
	fEnvResult  = 3 // nested ResultState
)

// Frozen TLV field numbers for campaign.ResultState.
const (
	fResConfig       = 1 // nested ConfigState
	fResMeasurements = 2 // zigzag varint
	fResVirtualNs    = 3 // zigzag varint
	fResMobileMean   = 4 // nested SummaryState
	fResMobileAll    = 5 // nested SummaryState
	fResWired        = 6 // nested SummaryState
	fResCell         = 7 // nested CellState, repeated
	fResCompact      = 8 // bool, omit-false
	fResARGhosts     = 9 // bool, omit-false
)

// Frozen TLV field numbers for campaign.ConfigState.
const (
	fCfgSeed         = 1 // uvarint
	fCfgMobileNodes  = 2 // zigzag varint
	fCfgProfile      = 3 // string
	fCfgLocalPeering = 4 // bool
	fCfgEdgeUPF      = 5 // bool
	fCfgTargetCell   = 6 // string, repeated
	fCfgWiredRounds  = 7 // zigzag varint
	fCfgSlicing      = 8 // nested SlicingState, omit-absent
	fCfgARGame       = 9 // string, omit-empty
)

// Frozen TLV field numbers for campaign.SlicingState.
const (
	fSliceStrategy = 1 // string
	fSliceSites    = 2 // zigzag varint
)

// Frozen TLV field numbers for campaign.CellState.
const (
	fCellCell      = 1 // string
	fCellN         = 2 // zigzag varint
	fCellMeanMs    = 3 // f64
	fCellStdMs     = 4 // f64
	fCellReported  = 5 // bool
	fCellGhostHits = 6 // zigzag varint, omit-zero
	fCellSummary   = 7 // nested SummaryState
	fCellSamples   = 8 // packed f64, omit-empty
)

// Frozen TLV field numbers for stats.SummaryState.
const (
	fSumN    = 1 // zigzag varint
	fSumMean = 2 // f64
	fSumM2   = 3 // f64
	fSumMin  = 4 // f64
	fSumMax  = 5 // f64
)

// ErrEnvelopeVersion reports an envelope whose version field is not
// RecordVersion; store readers treat it as a miss like any other
// foreign-version record.
var ErrEnvelopeVersion = errors.New("tlv: envelope version mismatch")

// AppendEnvelope encodes a store record (id + result state) as a
// complete frame appended to dst. Like AppendRecord, the payload is
// encoded in place: with a capacity-sufficient dst the whole frame
// costs zero allocations.
//
//sweepvet:hotpath
func AppendEnvelope(dst []byte, id string, st *campaign.ResultState) []byte {
	start := len(dst)
	dst = beginFrame(dst)
	dst = AppendEnvelopePayload(dst, id, st)
	return finishFrame(dst, start)
}

// AppendEnvelopePayload encodes the envelope's TLV payload (no frame).
//
//sweepvet:hotpath
func AppendEnvelopePayload(dst []byte, id string, st *campaign.ResultState) []byte {
	dst = appendUint(dst, fEnvVersion, RecordVersion)
	dst = appendString(dst, fEnvID, id)
	return appendResultState(dst, fEnvResult, st)
}

// The nested appenders below each encode one struct as the field
// numbered field: beginNested, the struct's own fields in frozen-number
// order, finishNested.

//sweepvet:hotpath
func appendResultState(dst []byte, field uint64, st *campaign.ResultState) []byte {
	dst, at := beginNested(dst, field)
	dst = appendConfigState(dst, fResConfig, &st.Config)
	dst = appendInt(dst, fResMeasurements, int64(st.Measurements))
	dst = appendInt(dst, fResVirtualNs, st.VirtualNs)
	dst = appendSummaryState(dst, fResMobileMean, st.MobileMean)
	dst = appendSummaryState(dst, fResMobileAll, st.MobileAll)
	dst = appendSummaryState(dst, fResWired, st.Wired)
	for i := range st.Cells {
		dst = appendCellState(dst, fResCell, &st.Cells[i])
	}
	if st.Compact {
		dst = appendBool(dst, fResCompact, true)
	}
	if st.ARGhosts {
		dst = appendBool(dst, fResARGhosts, true)
	}
	return finishNested(dst, at)
}

//sweepvet:hotpath
func appendConfigState(dst []byte, field uint64, c *campaign.ConfigState) []byte {
	dst, at := beginNested(dst, field)
	dst = appendUint(dst, fCfgSeed, c.Seed)
	dst = appendInt(dst, fCfgMobileNodes, int64(c.MobileNodes))
	dst = appendString(dst, fCfgProfile, c.Profile)
	dst = appendBool(dst, fCfgLocalPeering, c.LocalPeering)
	dst = appendBool(dst, fCfgEdgeUPF, c.EdgeUPF)
	for _, cell := range c.TargetCells {
		dst = appendString(dst, fCfgTargetCell, cell)
	}
	dst = appendInt(dst, fCfgWiredRounds, int64(c.WiredRounds))
	if c.Slicing != nil {
		// Not "dst, sat :=": inside this block that would declare a new
		// dst and silently drop the slicing field.
		var sat int
		dst, sat = beginNested(dst, fCfgSlicing)
		dst = appendString(dst, fSliceStrategy, c.Slicing.Strategy)
		dst = appendInt(dst, fSliceSites, int64(c.Slicing.Sites))
		dst = finishNested(dst, sat)
	}
	if c.ARGame != "" {
		dst = appendString(dst, fCfgARGame, c.ARGame)
	}
	return finishNested(dst, at)
}

//sweepvet:hotpath
func appendSummaryState(dst []byte, field uint64, s stats.SummaryState) []byte {
	dst, at := beginNested(dst, field)
	dst = appendInt(dst, fSumN, int64(s.N))
	dst = appendF64(dst, fSumMean, s.Mean)
	dst = appendF64(dst, fSumM2, s.M2)
	dst = appendF64(dst, fSumMin, s.Min)
	dst = appendF64(dst, fSumMax, s.Max)
	return finishNested(dst, at)
}

//sweepvet:hotpath
func appendCellState(dst []byte, field uint64, c *campaign.CellState) []byte {
	dst, at := beginNested(dst, field)
	dst = appendString(dst, fCellCell, c.Cell)
	dst = appendInt(dst, fCellN, int64(c.N))
	dst = appendF64(dst, fCellMeanMs, c.MeanMs)
	dst = appendF64(dst, fCellStdMs, c.StdMs)
	dst = appendBool(dst, fCellReported, c.Reported)
	if c.GhostHits != 0 {
		dst = appendInt(dst, fCellGhostHits, int64(c.GhostHits))
	}
	dst = appendSummaryState(dst, fCellSummary, c.Summary)
	if len(c.Samples) > 0 {
		dst = appendF64Packed(dst, fCellSamples, c.Samples)
	}
	return finishNested(dst, at)
}

// DecodeEnvelopePayload decodes a store record envelope: the id and the
// result state it carries. A version field other than RecordVersion
// fails with ErrEnvelopeVersion.
func DecodeEnvelopePayload(payload []byte) (id string, st campaign.ResultState, err error) {
	d := dec{b: payload}
	sawVersion := false
	for {
		f, val, done, derr := d.next()
		if done {
			if !sawVersion {
				return id, st, ErrEnvelopeVersion
			}
			return id, st, nil
		}
		if derr != nil {
			return id, st, derr
		}
		switch f {
		case fEnvVersion:
			v, verr := decUint(val)
			if verr != nil {
				return id, st, verr
			}
			if v != RecordVersion {
				return id, st, ErrEnvelopeVersion
			}
			sawVersion = true
		case fEnvID:
			id = string(val)
		case fEnvResult:
			if st, err = decodeResultState(val); err != nil {
				return id, st, err
			}
		}
	}
}

func decodeResultState(payload []byte) (campaign.ResultState, error) {
	st := campaign.ResultState{Cells: []campaign.CellState{}}
	d := dec{b: payload}
	for {
		f, val, done, err := d.next()
		if done {
			return st, nil
		}
		if err != nil {
			return st, err
		}
		switch f {
		case fResConfig:
			st.Config, err = decodeConfigState(val)
		case fResMeasurements:
			st.Measurements, err = decIntAsInt(val)
		case fResVirtualNs:
			st.VirtualNs, err = decInt(val)
		case fResMobileMean:
			st.MobileMean, err = decodeSummaryState(val)
		case fResMobileAll:
			st.MobileAll, err = decodeSummaryState(val)
		case fResWired:
			st.Wired, err = decodeSummaryState(val)
		case fResCell:
			var c campaign.CellState
			if c, err = decodeCellState(val); err == nil {
				st.Cells = append(st.Cells, c)
			}
		case fResCompact:
			st.Compact, err = decBool(val)
		case fResARGhosts:
			st.ARGhosts, err = decBool(val)
		}
		if err != nil {
			return st, fmt.Errorf("tlv: result field %d: %w", f, err)
		}
	}
}

func decodeConfigState(payload []byte) (campaign.ConfigState, error) {
	c := campaign.ConfigState{TargetCells: []string{}}
	d := dec{b: payload}
	for {
		f, val, done, err := d.next()
		if done {
			return c, nil
		}
		if err != nil {
			return c, err
		}
		switch f {
		case fCfgSeed:
			c.Seed, err = decUint(val)
		case fCfgMobileNodes:
			c.MobileNodes, err = decIntAsInt(val)
		case fCfgProfile:
			c.Profile = string(val)
		case fCfgLocalPeering:
			c.LocalPeering, err = decBool(val)
		case fCfgEdgeUPF:
			c.EdgeUPF, err = decBool(val)
		case fCfgTargetCell:
			c.TargetCells = append(c.TargetCells, string(val))
		case fCfgWiredRounds:
			c.WiredRounds, err = decIntAsInt(val)
		case fCfgSlicing:
			var s campaign.SlicingState
			if s, err = decodeSlicingState(val); err == nil {
				c.Slicing = &s
			}
		case fCfgARGame:
			c.ARGame = string(val)
		}
		if err != nil {
			return c, err
		}
	}
}

func decodeSlicingState(payload []byte) (campaign.SlicingState, error) {
	var s campaign.SlicingState
	d := dec{b: payload}
	for {
		f, val, done, err := d.next()
		if done {
			return s, nil
		}
		if err != nil {
			return s, err
		}
		switch f {
		case fSliceStrategy:
			s.Strategy = string(val)
		case fSliceSites:
			s.Sites, err = decIntAsInt(val)
		}
		if err != nil {
			return s, err
		}
	}
}

func decodeSummaryState(payload []byte) (stats.SummaryState, error) {
	var s stats.SummaryState
	d := dec{b: payload}
	for {
		f, val, done, err := d.next()
		if done {
			return s, nil
		}
		if err != nil {
			return s, err
		}
		switch f {
		case fSumN:
			s.N, err = decIntAsInt(val)
		case fSumMean:
			s.Mean, err = decF64(val)
		case fSumM2:
			s.M2, err = decF64(val)
		case fSumMin:
			s.Min, err = decF64(val)
		case fSumMax:
			s.Max, err = decF64(val)
		}
		if err != nil {
			return s, err
		}
	}
}

func decodeCellState(payload []byte) (campaign.CellState, error) {
	var c campaign.CellState
	d := dec{b: payload}
	for {
		f, val, done, err := d.next()
		if done {
			return c, nil
		}
		if err != nil {
			return c, err
		}
		switch f {
		case fCellCell:
			c.Cell = string(val)
		case fCellN:
			c.N, err = decIntAsInt(val)
		case fCellMeanMs:
			c.MeanMs, err = decF64(val)
		case fCellStdMs:
			c.StdMs, err = decF64(val)
		case fCellReported:
			c.Reported, err = decBool(val)
		case fCellGhostHits:
			c.GhostHits, err = decIntAsInt(val)
		case fCellSummary:
			c.Summary, err = decodeSummaryState(val)
		case fCellSamples:
			c.Samples, err = decF64Packed(val)
		}
		if err != nil {
			return c, err
		}
	}
}
