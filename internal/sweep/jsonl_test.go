package sweep

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/campaign"
)

// TestRecordSlicesNeverMarshalNull locks the fix for the null-vs-[]
// asymmetry: a Record built from a result with no cell rows (and a
// config whose cell slice is nil) must render empty arrays, because a
// JSON null here would make otherwise-identical scenarios differ in
// bytes depending on how their cell sets were spelled.
func TestRecordSlicesNeverMarshalNull(t *testing.T) {
	rec := RecordOf(ScenarioRun{
		Scenario: Scenario{ID: "x", Variant: "y", Config: campaign.Config{Seed: 1}},
		Result:   &campaign.Result{Config: campaign.Config{Profile: nil}},
	})
	// Canonicalization fills the default probe cells even from a nil
	// config slice; the cells aggregate has no rows at all.
	if rec.TargetCells == nil || rec.Cells == nil {
		t.Fatal("RecordOf must normalize nil slices")
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("null")) {
		t.Fatalf("record marshals a JSON null: %s", data)
	}
	if !bytes.Contains(data, []byte(`"cells":[]`)) {
		t.Fatalf("empty cell aggregate must render []: %s", data)
	}
}

// TestRecordGoldenBytes pins the exact serialized shape of a Record —
// field order, names, and slice normalization — so any encoding drift
// that would silently break stored-JSONL comparability fails here
// first.
func TestRecordGoldenBytes(t *testing.T) {
	rec := Record{
		Scenario: "aaaa", Variant: "bbbb", Seed: 7, Profile: "5G-public",
		MobileNodes: 3,
		TargetCells: []string{"B2"},
		WiredRounds: 5,
		Cells:       []CellAggregate{{Cell: "B2", N: 12, MeanMs: 41.5, StdMs: 3.25, Reported: true}},
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"scenario":"aaaa","variant":"bbbb","seed":7,"profile":"5G-public",` +
		`"local_peering":false,"edge_upf":false,"mobile_nodes":3,"target_cells":["B2"],` +
		`"wired_rounds":5,` +
		`"measurements":0,"mobile":{"n":0,"mean":0,"std":0,"min":0,"max":0},` +
		`"wired":{"n":0,"mean":0,"std":0,"min":0,"max":0},"mobile_vs_wired_factor":0,` +
		`"cells":[{"cell":"B2","n":12,"mean_ms":41.5,"std_ms":3.25,"reported":true}]}`
	if string(data) != golden {
		t.Fatalf("record encoding drifted:\n got %s\nwant %s", data, golden)
	}
	// The new-axis fields must stay omitted for plain-campaign records,
	// so pre-axis archives remain byte-comparable with fresh exports.
	if bytes.Contains(data, []byte("slicing")) || bytes.Contains(data, []byte("ar_deployment")) {
		t.Fatalf("default record must omit slicing/ar_deployment: %s", data)
	}
}

// TestDefaultAndExplicitCellsShareBytes is the byte-determinism
// contract between a default-cell scenario and the same scenario with
// the defaults spelled out: one scenario ID, one record, one byte
// sequence.
func TestDefaultAndExplicitCellsShareBytes(t *testing.T) {
	defaults := campaign.Config{Seed: 1}
	explicit := campaign.Config{Seed: 1,
		TargetCells: []string{"B2", "E2", "A3", "C4", "F3", "B5", "D5", "C6"}}
	if ScenarioID(defaults) != ScenarioID(explicit) {
		t.Fatal("default and explicit cell sets must share a scenario ID")
	}
	cache := NewCache()
	marshal := func(cfg campaign.Config) []byte {
		res, _, err := cache.Resolve(cfg, Want{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(RecordOf(ScenarioRun{
			Scenario: Scenario{ID: ScenarioID(cfg), Variant: VariantID(cfg), Config: cfg},
			Result:   res,
		}))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(marshal(defaults), marshal(explicit)) {
		t.Fatal("default-cell and explicit-cell records differ in bytes")
	}
}
