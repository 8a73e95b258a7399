package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/argame"
	"repro/internal/campaign"
	"repro/internal/slicing"
)

// TestAxesScenarioMatchesGridExpansion: resolving one scenario by axes
// must mint exactly the ID the grid expansion mints for the same point,
// for plain, slicing and AR configurations.
func TestAxesScenarioMatchesGridExpansion(t *testing.T) {
	g := Grid{
		Seeds:             []uint64{9},
		EdgeUPF:           []bool{true},
		SlicingStrategies: []slicing.Strategy{slicing.StrategyLatency},
	}
	scs, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Axes{Seed: 9, EdgeUPF: true, Slicing: "latency"}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.ID != scs[0].ID || sc.Variant != scs[0].Variant {
		t.Fatalf("axes resolved to %s/%s, grid expansion to %s/%s",
			sc.ID, sc.Variant, scs[0].ID, scs[0].Variant)
	}

	ar, err := Axes{Seed: 3, ARDeployment: "5G-edge-upf"}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	want := ScenarioID(campaign.Config{Seed: 3, ARGame: &campaign.ARGameMode{Deployment: argame.DeployEdgeUPF}})
	if ar.ID != want {
		t.Fatalf("AR axes resolved to %s, want %s", ar.ID, want)
	}

	// The zero axes are the paper's baseline campaign at seed 0.
	base, err := Axes{}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if base.ID != ScenarioID(campaign.Config{}) {
		t.Fatal("zero axes must resolve to the default campaign")
	}
	// "none" names normalize away like the zero value.
	noned, err := Axes{Slicing: "none", ARDeployment: "none"}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if noned.ID != base.ID {
		t.Fatal(`"none" axes must resolve like empty axes`)
	}
}

// TestAxesRejectBadRequests: unknown names and nonsensical values
// resolve to errors, never to a half-default config that would mint a
// bogus scenario ID.
func TestAxesRejectBadRequests(t *testing.T) {
	bad := []Axes{
		{Profile: "7G"},
		{Slicing: "quantum"},
		{ARDeployment: "4G"},
		{MobileNodes: -1},
		{WiredRounds: -2},
		{SlicingSites: -1},
		{SlicingSites: 4},                  // sites without a strategy
		{Slicing: "none", SlicingSites: 4}, // "none" validates like absent
		{Slicing: "latency", TargetCells: []string{"B2"}},
	}
	for i, ax := range bad {
		if _, err := ax.Config(); err == nil {
			t.Errorf("axes %d (%+v) resolved without error", i, ax)
		}
	}
}

// TestGridSpecResolvesNamedAxes: a spec's named axes produce the same
// scenarios as a hand-built grid; unknown names are rejected.
func TestGridSpecResolvesNamedAxes(t *testing.T) {
	spec := GridSpec{
		Seeds:         []uint64{1, 2},
		EdgeUPF:       []bool{false, true},
		Slicing:       []string{"none", "latency"},
		ARDeployments: []string{"none", "5G-edge-upf"},
	}
	g, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	want := Grid{
		Seeds:             []uint64{1, 2},
		EdgeUPF:           []bool{false, true},
		SlicingStrategies: []slicing.Strategy{slicing.StrategyNone, slicing.StrategyLatency},
		ARGameDeployments: []argame.Deployment{argame.DeployNone, argame.DeployEdgeUPF},
	}
	got, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := want.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(exp) {
		t.Fatalf("spec expands to %d scenarios, want %d", len(got), len(exp))
	}
	for i := range got {
		if got[i].ID != exp[i].ID {
			t.Fatalf("scenario %d: spec %s, grid %s", i, got[i].ID, exp[i].ID)
		}
	}

	for _, bad := range []GridSpec{
		{Profiles: []string{"7G"}},
		{Slicing: []string{"quantum"}},
		{ARDeployments: []string{"4G"}},
		{Replications: -1},
		{MobileNodes: []int{3, -3}},
		{WiredRounds: []int{-2}},
	} {
		if _, err := bad.Grid(); err == nil {
			t.Errorf("spec %+v resolved without error", bad)
		}
	}
}

// TestRunEachStreamsGridOrderByteIdentical: the emitted sequence is the
// final grid order, and JSONL written record-by-record from the stream
// matches the batch export byte-for-byte — the contract the /v1/sweep
// endpoint's chunked stream rests on. The returned accounting matches
// Run's.
func TestRunEachStreamsGridOrderByteIdentical(t *testing.T) {
	g := Grid{Seeds: []uint64{1, 2, 3}, LocalPeering: []bool{false, true}}
	var stream bytes.Buffer
	enc := json.NewEncoder(&stream)
	var emitted []string
	hits, misses, err := RunEach(g, Options{Workers: 3}, func(run ScenarioRun) error {
		emitted = append(emitted, run.ID)
		return enc.Encode(RecordOf(run))
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if hits != res.CacheHits || misses != res.CacheMisses {
		t.Fatalf("RunEach hits/misses = %d/%d, Run = %d/%d", hits, misses, res.CacheHits, res.CacheMisses)
	}
	if len(emitted) != len(res.Scenarios) {
		t.Fatalf("emitted %d of %d scenarios", len(emitted), len(res.Scenarios))
	}
	for i, run := range res.Scenarios {
		if emitted[i] != run.ID {
			t.Fatalf("position %d streamed %s, grid order has %s", i, emitted[i], run.ID)
		}
	}
	batch, err := res.ExportJSONL()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream.Bytes(), batch) {
		t.Fatal("streamed JSONL differs from batch export")
	}
}

// TestRunEachEmitErrorCancelsSweep: an emit failure (a client hanging
// up mid-stream) aborts the run with the emit error instead of
// simulating the rest of the grid.
func TestRunEachEmitErrorCancelsSweep(t *testing.T) {
	sentinel := errors.New("client went away")
	calls := 0
	_, _, err := RunEach(Grid{Seeds: []uint64{4, 5, 6, 7}}, Options{Workers: 1}, func(ScenarioRun) error {
		calls++
		if calls == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the emit error", err)
	}
	if calls != 2 {
		t.Fatalf("emit ran %d times, want 2", calls)
	}
}

// TestAxesOfRoundTripsScenarioIDs: every cell of a grid that exercises
// all axis kinds re-describes (AxesOf), re-resolves (Scenario), and
// lands on the same content hash — the invariant that lets a routing
// layer fan a sweep out as independent per-scenario requests.
func TestAxesOfRoundTripsScenarioIDs(t *testing.T) {
	spec := GridSpec{
		Seeds:         []uint64{1, 9},
		EdgeUPF:       []bool{false, true},
		Slicing:       []string{"none", "latency"},
		ARDeployments: []string{"none", "5G-edge-upf"},
	}
	g, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	scs, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		ax := AxesOf(sc.Config)
		re, err := ax.Scenario()
		if err != nil {
			t.Fatalf("scenario %d (%s): re-resolve: %v", sc.Index, sc.ID, err)
		}
		if re.ID != sc.ID || re.Variant != sc.Variant {
			t.Fatalf("scenario %d: AxesOf round-trip changed identity: %s/%s -> %s/%s",
				sc.Index, sc.ID, sc.Variant, re.ID, re.Variant)
		}
		// And the axes survive a JSON round-trip (they travel as a
		// request body).
		b, err := json.Marshal(ax)
		if err != nil {
			t.Fatal(err)
		}
		var back Axes
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		re2, err := back.Scenario()
		if err != nil || re2.ID != sc.ID {
			t.Fatalf("scenario %d: JSON round-trip changed identity (%v)", sc.Index, err)
		}
	}
}
