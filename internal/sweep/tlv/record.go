package tlv

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/sweep"
)

// Frozen TLV field numbers for the /v1/sweep stream record
// (sweep.Record). These mirror the JSON tags field for field; the
// assignments are append-only — a released number is never reused or
// renumbered (enforced by sweepvet's tlvtags analyzer). New fields take
// the next free number and must decode-to-zero safely, the TLV twin of
// a new JSON key carrying omitempty.
const (
	fRecScenario     = 1  // string
	fRecVariant      = 2  // string
	fRecSeed         = 3  // uvarint
	fRecProfile      = 4  // string
	fRecLocalPeering = 5  // bool
	fRecEdgeUPF      = 6  // bool
	fRecMobileNodes  = 7  // zigzag varint
	fRecTargetCell   = 8  // string, repeated
	fRecWiredRounds  = 9  // zigzag varint
	fRecSlicing      = 10 // string, omit-empty
	fRecARDeployment = 11 // string, omit-empty
	fRecGhostHits    = 12 // zigzag varint, omit-zero
	fRecGhostRate    = 13 // f64, omit-zero
	fRecMeasurements = 14 // zigzag varint
	fRecMobile       = 15 // nested Snapshot
	fRecWired        = 16 // nested Snapshot
	fRecFactor       = 17 // f64
	fRecCell         = 18 // nested CellAggregate, repeated
)

// Frozen TLV field numbers for stats.Snapshot.
const (
	fSnapN    = 1 // zigzag varint
	fSnapMean = 2 // f64
	fSnapStd  = 3 // f64
	fSnapMin  = 4 // f64
	fSnapMax  = 5 // f64
)

// Frozen TLV field numbers for sweep.CellAggregate.
const (
	fAggCell      = 1 // string
	fAggN         = 2 // zigzag varint
	fAggMeanMs    = 3 // f64
	fAggStdMs     = 4 // f64
	fAggReported  = 5 // bool
	fAggGhostHits = 6 // zigzag varint, omit-zero
	fAggGhostRate = 7 // f64, omit-zero
)

// AppendRecord encodes one stream record as a complete frame appended
// to dst. The encoding is deterministic: fields in frozen-number order,
// floats as exact bits, so two encodes of one record are byte-identical
// wherever they run. The payload is encoded in place — with a
// capacity-sufficient dst the whole frame costs zero allocations.
//
//sweepvet:hotpath
func AppendRecord(dst []byte, rec *sweep.Record) []byte {
	start := len(dst)
	dst = beginFrame(dst)
	dst = AppendRecordPayload(dst, rec)
	return finishFrame(dst, start)
}

// AppendRecordPayload encodes the record's TLV payload (no frame) into
// dst. Nested structs encode in place after a one-byte length
// placeholder that finishNested backpatches, widening it when the
// value needs a longer uvarint.
//
//sweepvet:hotpath
func AppendRecordPayload(dst []byte, rec *sweep.Record) []byte {
	dst = appendString(dst, fRecScenario, rec.Scenario)
	dst = appendString(dst, fRecVariant, rec.Variant)
	dst = appendUint(dst, fRecSeed, rec.Seed)
	dst = appendString(dst, fRecProfile, rec.Profile)
	dst = appendBool(dst, fRecLocalPeering, rec.LocalPeering)
	dst = appendBool(dst, fRecEdgeUPF, rec.EdgeUPF)
	dst = appendInt(dst, fRecMobileNodes, int64(rec.MobileNodes))
	for _, c := range rec.TargetCells {
		dst = appendString(dst, fRecTargetCell, c)
	}
	dst = appendInt(dst, fRecWiredRounds, int64(rec.WiredRounds))
	if rec.Slicing != "" {
		dst = appendString(dst, fRecSlicing, rec.Slicing)
	}
	if rec.ARDeployment != "" {
		dst = appendString(dst, fRecARDeployment, rec.ARDeployment)
	}
	if rec.GhostHits != 0 {
		dst = appendInt(dst, fRecGhostHits, int64(rec.GhostHits))
	}
	if rec.GhostRate != 0 {
		dst = appendF64(dst, fRecGhostRate, rec.GhostRate)
	}
	dst = appendInt(dst, fRecMeasurements, int64(rec.Measurements))
	dst = appendSnapshot(dst, fRecMobile, rec.Mobile)
	dst = appendSnapshot(dst, fRecWired, rec.Wired)
	dst = appendF64(dst, fRecFactor, rec.Factor)
	for i := range rec.Cells {
		dst = appendCellAggregate(dst, fRecCell, &rec.Cells[i])
	}
	return dst
}

//sweepvet:hotpath
func appendSnapshot(dst []byte, field uint64, s stats.Snapshot) []byte {
	dst, at := beginNested(dst, field)
	dst = appendInt(dst, fSnapN, int64(s.N))
	dst = appendF64(dst, fSnapMean, s.Mean)
	dst = appendF64(dst, fSnapStd, s.Std)
	dst = appendF64(dst, fSnapMin, s.Min)
	dst = appendF64(dst, fSnapMax, s.Max)
	return finishNested(dst, at)
}

//sweepvet:hotpath
func appendCellAggregate(dst []byte, field uint64, c *sweep.CellAggregate) []byte {
	dst, at := beginNested(dst, field)
	dst = appendString(dst, fAggCell, c.Cell)
	dst = appendInt(dst, fAggN, int64(c.N))
	dst = appendF64(dst, fAggMeanMs, c.MeanMs)
	dst = appendF64(dst, fAggStdMs, c.StdMs)
	dst = appendBool(dst, fAggReported, c.Reported)
	if c.GhostHits != 0 {
		dst = appendInt(dst, fAggGhostHits, int64(c.GhostHits))
	}
	if c.GhostRate != 0 {
		dst = appendF64(dst, fAggGhostRate, c.GhostRate)
	}
	return finishNested(dst, at)
}

// DecodeRecordPayload decodes one stream record from its TLV payload.
// Slices that JSONL marshals as [] decode non-nil, so a decoded record
// re-marshals to the exact JSONL line the encoder's record would.
func DecodeRecordPayload(payload []byte) (sweep.Record, error) {
	rec := sweep.Record{TargetCells: []string{}, Cells: []sweep.CellAggregate{}}
	d := dec{b: payload}
	for {
		f, val, done, err := d.next()
		if done {
			return rec, nil
		}
		if err != nil {
			return rec, err
		}
		switch f {
		case fRecScenario:
			rec.Scenario = string(val)
		case fRecVariant:
			rec.Variant = string(val)
		case fRecSeed:
			rec.Seed, err = decUint(val)
		case fRecProfile:
			rec.Profile = string(val)
		case fRecLocalPeering:
			rec.LocalPeering, err = decBool(val)
		case fRecEdgeUPF:
			rec.EdgeUPF, err = decBool(val)
		case fRecMobileNodes:
			rec.MobileNodes, err = decIntAsInt(val)
		case fRecTargetCell:
			rec.TargetCells = append(rec.TargetCells, string(val))
		case fRecWiredRounds:
			rec.WiredRounds, err = decIntAsInt(val)
		case fRecSlicing:
			rec.Slicing = string(val)
		case fRecARDeployment:
			rec.ARDeployment = string(val)
		case fRecGhostHits:
			rec.GhostHits, err = decIntAsInt(val)
		case fRecGhostRate:
			rec.GhostRate, err = decF64(val)
		case fRecMeasurements:
			rec.Measurements, err = decIntAsInt(val)
		case fRecMobile:
			rec.Mobile, err = decodeSnapshot(val)
		case fRecWired:
			rec.Wired, err = decodeSnapshot(val)
		case fRecFactor:
			rec.Factor, err = decF64(val)
		case fRecCell:
			var c sweep.CellAggregate
			if c, err = decodeCellAggregate(val); err == nil {
				rec.Cells = append(rec.Cells, c)
			}
		default:
			// Unknown field: a future append-only addition — skip, the
			// same tolerance json.Unmarshal gives unknown keys.
		}
		if err != nil {
			return rec, fmt.Errorf("tlv: record field %d: %w", f, err)
		}
	}
}

func decodeSnapshot(payload []byte) (stats.Snapshot, error) {
	var s stats.Snapshot
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
		case fSnapN:
			s.N, err = decIntAsInt(val)
		case fSnapMean:
			s.Mean, err = decF64(val)
		case fSnapStd:
			s.Std, err = decF64(val)
		case fSnapMin:
			s.Min, err = decF64(val)
		case fSnapMax:
			s.Max, err = decF64(val)
		}
		if err != nil {
			return s, err
		}
	}
}

func decodeCellAggregate(payload []byte) (sweep.CellAggregate, error) {
	var c sweep.CellAggregate
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
		case fAggCell:
			c.Cell = string(val)
		case fAggN:
			c.N, err = decIntAsInt(val)
		case fAggMeanMs:
			c.MeanMs, err = decF64(val)
		case fAggStdMs:
			c.StdMs, err = decF64(val)
		case fAggReported:
			c.Reported, err = decBool(val)
		case fAggGhostHits:
			c.GhostHits, err = decIntAsInt(val)
		case fAggGhostRate:
			c.GhostRate, err = decF64(val)
		}
		if err != nil {
			return c, err
		}
	}
}
