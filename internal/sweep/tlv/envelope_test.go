package tlv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/stats"
)

func randResultState(rng *rand.Rand) campaign.ResultState {
	st := campaign.ResultState{
		Config: campaign.ConfigState{
			Seed:         rng.Uint64(),
			MobileNodes:  rng.Intn(100),
			Profile:      []string{"urban-macro", "rural"}[rng.Intn(2)],
			LocalPeering: rng.Intn(2) == 0,
			EdgeUPF:      rng.Intn(2) == 0,
			TargetCells:  []string{},
			WiredRounds:  rng.Intn(50),
		},
		Measurements: rng.Intn(1 << 20),
		VirtualNs:    rng.Int63(),
		MobileMean:   randSummary(rng),
		MobileAll:    randSummary(rng),
		Wired:        randSummary(rng),
		Cells:        []campaign.CellState{},
		Compact:      rng.Intn(2) == 0,
		ARGhosts:     rng.Intn(2) == 0,
	}
	for i := rng.Intn(4); i > 0; i-- {
		st.Config.TargetCells = append(st.Config.TargetCells, fmt.Sprintf("cell-%d", rng.Intn(16)))
	}
	if rng.Intn(2) == 0 {
		st.Config.Slicing = &campaign.SlicingState{
			Strategy: "latency",
			Sites:    1 + rng.Intn(8),
		}
	}
	if rng.Intn(2) == 0 {
		st.Config.ARGame = "ghost-hunt"
	}
	for i := rng.Intn(4); i > 0; i-- {
		cs := campaign.CellState{
			Cell:     fmt.Sprintf("cell-%d", rng.Intn(16)),
			N:        rng.Intn(10000),
			MeanMs:   randFloat(rng),
			StdMs:    math.Abs(randFloat(rng)),
			Reported: rng.Intn(2) == 0,
			Summary:  randSummary(rng),
		}
		if rng.Intn(2) == 0 {
			cs.GhostHits = 1 + rng.Intn(100)
		}
		if !st.Compact {
			for j := rng.Intn(20); j > 0; j-- {
				cs.Samples = append(cs.Samples, randFloat(rng))
			}
		}
		st.Cells = append(st.Cells, cs)
	}
	return st
}

func randSummary(rng *rand.Rand) stats.SummaryState {
	return stats.SummaryState{
		N:    rng.Intn(100000),
		Mean: randFloat(rng),
		M2:   math.Abs(randFloat(rng)),
		Min:  randFloat(rng),
		Max:  randFloat(rng),
	}
}

// TestEnvelopeRoundTripProperty is the store-side property test: every
// v3-encoded record envelope decodes to the exact ResultState it came
// from, structurally and in JSON bytes — so a TLV segment serves the
// same JSONL view a JSONL segment would.
func TestEnvelopeRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		st := randResultState(rng)
		id := fmt.Sprintf("%016x", rng.Uint64())
		frame := AppendEnvelope(nil, id, &st)
		payload, n, err := ParseFrame(frame)
		if err != nil || n != len(frame) {
			t.Fatalf("iter %d: ParseFrame n=%d err=%v", i, n, err)
		}
		gotID, gotSt, err := DecodeEnvelopePayload(payload)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		if gotID != id {
			t.Fatalf("iter %d: id %q, want %q", i, gotID, id)
		}
		if !reflect.DeepEqual(gotSt, st) {
			t.Fatalf("iter %d: state differs:\n got %+v\nwant %+v", i, gotSt, st)
		}
		wantJSON, _ := json.Marshal(st)
		gotJSON, _ := json.Marshal(gotSt)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("iter %d: JSON bytes differ:\n got %s\nwant %s", i, gotJSON, wantJSON)
		}
	}
}

// TestEnvelopeVersionGate pins that foreign-version envelopes read as a
// structured mismatch, the v3 analogue of the JSON path skipping
// records whose "v" field is unknown.
func TestEnvelopeVersionGate(t *testing.T) {
	var st campaign.ResultState
	payload := AppendEnvelopePayload(nil, "id1", &st)

	// Re-encode with a bumped version field.
	var bumped []byte
	bumped = appendUint(bumped, fEnvVersion, RecordVersion+1)
	bumped = append(bumped, payload[len(appendUint(nil, fEnvVersion, RecordVersion)):]...)
	if _, _, err := DecodeEnvelopePayload(bumped); !errors.Is(err, ErrEnvelopeVersion) {
		t.Fatalf("bumped version: err = %v, want ErrEnvelopeVersion", err)
	}

	// A payload with no version field at all is equally foreign.
	noVer := appendString(nil, fEnvID, "id1")
	if _, _, err := DecodeEnvelopePayload(noVer); !errors.Is(err, ErrEnvelopeVersion) {
		t.Fatalf("missing version: err = %v, want ErrEnvelopeVersion", err)
	}
}

// TestEnvelopeSamplesExactBits pins the packed-float path: raw RTT
// samples round-trip bit-exactly, including negative zero and values
// with no short decimal form.
func TestEnvelopeSamplesExactBits(t *testing.T) {
	st := campaign.ResultState{
		Config: campaign.ConfigState{TargetCells: []string{}},
		Cells: []campaign.CellState{{
			Cell:    "c0",
			Samples: []float64{0.1, 1.0 / 3.0, math.Copysign(0, -1), 2.2250738585072014e-308},
		}},
	}
	payload := AppendEnvelopePayload(nil, "id", &st)
	_, got, err := DecodeEnvelopePayload(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, want := range st.Cells[0].Samples {
		if gotBits, wantBits := math.Float64bits(got.Cells[0].Samples[i]), math.Float64bits(want); gotBits != wantBits {
			t.Fatalf("sample %d: bits %x, want %x", i, gotBits, wantBits)
		}
	}
}

// TestEnvelopeOfSharedStateMatchesDeepCopy: Result.State shares the
// result's raw values rather than copying them, and the envelope it
// encodes must be byte for byte the one a deep-copied state encodes.
func TestEnvelopeOfSharedStateMatchesDeepCopy(t *testing.T) {
	res, err := campaign.Run(campaign.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	shared := res.State(false)
	deep := shared
	deep.Config.TargetCells = slices.Clone(shared.Config.TargetCells)
	deep.Cells = slices.Clone(shared.Cells)
	values := 0
	for i := range deep.Cells {
		deep.Cells[i].Samples = slices.Clone(deep.Cells[i].Samples)
		values += len(deep.Cells[i].Samples)
	}
	if values == 0 {
		t.Fatal("full state carries no raw samples")
	}
	if got, want := AppendEnvelope(nil, "ab12", &shared), AppendEnvelope(nil, "ab12", &deep); !bytes.Equal(got, want) {
		t.Fatal("a state sharing the result's values encodes different bytes from a deep copy")
	}
}
