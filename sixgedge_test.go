package sixgedge

import (
	"strings"
	"testing"
	"time"
)

func TestRunCampaignFacade(t *testing.T) {
	res, err := RunCampaign(CampaignConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinMean.MeanMs <= 0 || res.MaxMean.MeanMs <= res.MinMean.MeanMs {
		t.Fatal("campaign extremes inconsistent")
	}
}

func TestRunSweepFacade(t *testing.T) {
	res, err := RunSweep(SweepGrid{
		Seeds:   []uint64{1, 2},
		EdgeUPF: []bool{false, true},
	}, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 4 || len(res.Variants) != 2 {
		t.Fatalf("got %d scenarios / %d variants, want 4 / 2",
			len(res.Scenarios), len(res.Variants))
	}
	out, err := res.ExportJSONL()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty JSONL export")
	}
	if len(res.Deltas()) != 1 {
		t.Fatalf("want one edge-UPF delta, got %d", len(res.Deltas()))
	}
}

// TestRunSweepRejectsNegativeCounts: a negative count in a library
// grid fails the sweep with an error instead of panicking a worker.
func TestRunSweepRejectsNegativeCounts(t *testing.T) {
	for _, g := range []SweepGrid{
		{Seeds: []uint64{1}, WiredRounds: []int{-1}},
		{Seeds: []uint64{1}, MobileNodes: []int{-2}},
	} {
		if _, err := RunSweep(g, SweepOptions{Workers: 2}); err == nil {
			t.Fatalf("RunSweep(%+v): err = nil, want an error", g)
		}
	}
}

func TestRunExperimentFacade(t *testing.T) {
	art, err := RunExperiment("fig2", 42)
	if err != nil {
		t.Fatal(err)
	}
	if art.ID != "fig2" || art.Text == "" {
		t.Fatal("artifact malformed")
	}
	if _, err := RunExperiment("bogus", 42); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Fatal("unknown id should error with the available list")
	}
}

func TestExperimentsListed(t *testing.T) {
	if len(Experiments()) < 13 {
		t.Fatalf("only %d experiments registered", len(Experiments()))
	}
}

func TestRecommendationFacades(t *testing.T) {
	p, err := EvaluatePeering()
	if err != nil {
		t.Fatal(err)
	}
	if p.BaselineHops != 10 {
		t.Fatalf("baseline hops = %d", p.BaselineHops)
	}
	u, err := EvaluateUPF(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Rows) != 4 {
		t.Fatal("UPF rows missing")
	}
	c, err := EvaluateCPF(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) != 4 {
		t.Fatal("CPF rows missing")
	}
}

func TestPlayARGameFacade(t *testing.T) {
	rep, err := PlayARGame(GameConfig{Seed: 1, Duration: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames == 0 {
		t.Fatal("no frames")
	}
	if len(GameDeployments) != 4 {
		t.Fatal("deployment ladder incomplete")
	}
}
