package campaign

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/argame"
	"repro/internal/slicing"
)

// goldenStateConfigs spans the firing-order cases of Run: several
// mobile nodes whose first stops (and wired rounds) share timestamps,
// so equal-time ties between streams decide the raw sample order;
// wired rounds 1, 2 and 5; local peering and edge UPF; slicing
// placements that choose their own probes; and AR mode, which never
// pings a target.
func goldenStateConfigs() []Config {
	var cfgs []Config
	for _, seed := range []uint64{1, 2} {
		for _, peering := range []bool{false, true} {
			for _, edge := range []bool{false, true} {
				cfgs = append(cfgs, Config{Seed: seed, LocalPeering: peering, EdgeUPF: edge})
			}
		}
	}
	return append(cfgs,
		Config{Seed: 3, MobileNodes: 5, TargetCells: []string{"B2", "E2"}, WiredRounds: 2},
		Config{Seed: 1, MobileNodes: 1, TargetCells: []string{"B2", "C4"}, WiredRounds: 1},
		Config{Seed: 1, Slicing: &SlicingPlacement{Strategy: slicing.StrategyLatency}},
		Config{Seed: 2, LocalPeering: true, WiredRounds: 2,
			Slicing: &SlicingPlacement{Strategy: slicing.StrategyResilience, Sites: 4}},
		Config{Seed: 1, ARGame: &ARGameMode{Deployment: argame.DeployBaseline}},
		Config{Seed: 2, MobileNodes: 2, EdgeUPF: true, WiredRounds: 3,
			ARGame: &ARGameMode{Deployment: argame.DeploySixG}},
	)
}

// TestSimulatedStateGolden pins the full raw state of a set of
// campaigns: State(false) JSON — every per-cell sample in insertion
// order — plus TotalMeasurements and VirtualDuration. The sweep
// package's record golden hashes summaries only, which a reordering of
// samples within a cell could leave untouched; this digest catches it.
//
// The digest was computed while Run still queued every ping on a
// des.Simulator calendar, so it also proves the stream merge fires
// pings in the calendar's order. Re-pin it only for an intended
// change to the simulation.
func TestSimulatedStateGolden(t *testing.T) {
	const want = "b06dabbbc5ca6a9c8415afc6fbbf8d9610241f6d8c4a7f57c326787ee4552d97"
	h := sha256.New()
	for i, cfg := range goldenStateConfigs() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		b, err := json.Marshal(res.State(false))
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		h.Write(b)
		fmt.Fprintf(h, "\n%d %d\n", res.TotalMeasurements, int64(res.VirtualDuration))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("raw state digest = %s, want %s: a sample value, the sample order, "+
			"the measurement count or the virtual duration changed", got, want)
	}
}
