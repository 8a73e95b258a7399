package campaign

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

func runOnce(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// exportBytes renders the downstream-visible serialization of a result;
// state round-trips are judged on it because byte-stable exports are
// the contract persistence must keep.
func exportBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertRestoredMatches(t *testing.T, orig, restored *Result) {
	t.Helper()
	if !bytes.Equal(exportBytes(t, orig), exportBytes(t, restored)) {
		t.Fatal("restored result exports different bytes")
	}
	if restored.MobileAll != orig.MobileAll || restored.Wired != orig.Wired ||
		restored.MobileMean != orig.MobileMean {
		t.Fatal("restored summaries are not bit-identical")
	}
	if restored.MinMean != orig.MinMean || restored.MaxMean != orig.MaxMean ||
		restored.MinStd != orig.MinStd || restored.MaxStd != orig.MaxStd {
		t.Fatal("restored extremes differ")
	}
	if restored.VirtualDuration != orig.VirtualDuration ||
		restored.TotalMeasurements != orig.TotalMeasurements {
		t.Fatal("restored scalars differ")
	}
	if len(restored.Reports) != len(orig.Reports) {
		t.Fatalf("restored %d reports, want %d", len(restored.Reports), len(orig.Reports))
	}
	for i := range orig.Reports {
		if restored.Reports[i] != orig.Reports[i] {
			t.Fatalf("report %d differs: %+v vs %+v", i, restored.Reports[i], orig.Reports[i])
		}
	}
}

func TestResultStateRoundTripFull(t *testing.T) {
	orig := runOnce(t, Config{Seed: 11, EdgeUPF: true})
	data, err := json.Marshal(orig.State(false))
	if err != nil {
		t.Fatal(err)
	}
	var st ResultState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := st.Restore()
	if err != nil {
		t.Fatal(err)
	}
	assertRestoredMatches(t, orig, restored)
	if restored.SummaryOnly {
		t.Fatal("full restore must not be marked SummaryOnly")
	}
	// Full records keep raw samples: per-cell quantiles still work.
	for c, s := range orig.Samples {
		r := restored.Samples[c]
		if r == nil || r.N() != s.N() {
			t.Fatalf("cell %s lost its sample", c)
		}
		if s.N() > 0 && r.Quantile(0.5) != s.Quantile(0.5) {
			t.Fatalf("cell %s median %v, want %v", c, r.Quantile(0.5), s.Quantile(0.5))
		}
	}
}

func TestResultStateRoundTripCompact(t *testing.T) {
	orig := runOnce(t, Config{Seed: 11})
	data, err := json.Marshal(orig.State(true))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"samples"`)) {
		t.Fatal("compact state must not serialize raw samples")
	}
	var st ResultState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := st.Restore()
	if err != nil {
		t.Fatal(err)
	}
	assertRestoredMatches(t, orig, restored)
	if !restored.SummaryOnly {
		t.Fatal("compact restore must be marked SummaryOnly")
	}
	// Moments survive compaction exactly; only raw observations are gone.
	for c, s := range orig.Samples {
		r := restored.Samples[c]
		if r == nil || r.Summary != s.Summary {
			t.Fatalf("cell %s summary not preserved compactly", c)
		}
		if len(r.Values()) != 0 {
			t.Fatalf("cell %s kept %d raw samples in compact mode", c, len(r.Values()))
		}
	}
}

func TestResultStateRestoreRejectsGarbage(t *testing.T) {
	orig := runOnce(t, Config{Seed: 11})

	bad := orig.State(true)
	bad.Config.Profile = "no-such-profile"
	if _, err := bad.Restore(); err == nil {
		t.Fatal("unknown profile must fail restore")
	}

	bad = orig.State(true)
	bad.Cells[0].Cell = "?bogus?"
	if _, err := bad.Restore(); err == nil {
		t.Fatal("malformed cell id must fail restore")
	}

	bad = orig.State(true)
	for i := range bad.Cells {
		bad.Cells[i].Reported = false
	}
	if _, err := bad.Restore(); err == nil {
		t.Fatal("a state with no reported cells must fail restore")
	}
}

func TestResultCloneIsIndependent(t *testing.T) {
	orig := runOnce(t, Config{Seed: 11})
	ref := exportBytes(t, orig)

	cp := orig.Clone()
	if !bytes.Equal(ref, exportBytes(t, cp)) {
		t.Fatal("clone exports different bytes")
	}
	cp.TotalMeasurements = -1
	cp.Reports[0].MeanMs = -1
	cp.Config.TargetCells[0] = "Z9"
	for _, s := range cp.Samples {
		s.Add(1e9)
	}
	if !bytes.Equal(ref, exportBytes(t, orig)) {
		t.Fatal("mutating the clone changed the original")
	}
	if orig.Config.TargetCells[0] == "Z9" {
		t.Fatal("clone shares the target-cell slice")
	}
}

// TestResultCloneKeepsOriginalOrder: a full clone's values live in one
// slab of their own, so sorting a cloned sample (Quantile sorts in
// place) leaves the original's insertion order untouched, and an Add
// past one cloned sample's end leaves its neighbour in the slab intact.
func TestResultCloneKeepsOriginalOrder(t *testing.T) {
	orig := runOnce(t, Config{Seed: 11})
	cp := orig.Clone()
	for _, rep := range orig.Reports {
		s := orig.Samples[rep.Cell]
		before := slices.Clone(s.Values())
		c := cp.Samples[rep.Cell]
		if len(c.Values()) != cap(c.Values()) {
			t.Fatalf("cell %s: cloned sample has len %d, cap %d", rep.Cell, len(c.Values()), cap(c.Values()))
		}
		c.Quantile(0.5)
		if !slices.Equal(s.Values(), before) {
			t.Fatalf("cell %s: sorting the clone reordered the original", rep.Cell)
		}
	}
	for i := 0; i+1 < len(cp.Reports); i++ {
		next := cp.Samples[cp.Reports[i+1].Cell]
		want := slices.Clone(next.Values())
		cp.Samples[cp.Reports[i].Cell].Add(-1)
		if !slices.Equal(next.Values(), want) {
			t.Fatalf("adding to cell %s overwrote cell %s", cp.Reports[i].Cell, cp.Reports[i+1].Cell)
		}
	}
}

// TestStateSharesRawValues: a full state hands the encoder the
// result's own values, capacity-clipped so an append to them copies.
func TestStateSharesRawValues(t *testing.T) {
	res := runOnce(t, Config{Seed: 11})
	st := res.State(false)
	for i, rep := range res.Reports {
		got, vals := st.Cells[i].Samples, res.Samples[rep.Cell].Values()
		if len(vals) == 0 {
			continue
		}
		if &got[0] != &vals[0] || len(got) != len(vals) || cap(got) != len(got) {
			t.Fatalf("cell %s: state samples (len %d, cap %d) do not alias the result's %d values",
				rep.Cell, len(got), cap(got), len(vals))
		}
	}
}
