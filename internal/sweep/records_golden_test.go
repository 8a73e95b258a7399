package sweep

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/argame"
	"repro/internal/slicing"
)

// TestSimulatedRecordsGolden pins the bytes campaign.Run + RecordOf
// produce for a small multi-axis grid. TestScenarioIDAllAxesGolden
// digests only IDs; this digest covers the simulated numbers, so a
// change to routing, the radio model, the DES schedule or the record
// encoding that moves any simulated value fails here. The grid crosses
// seeds, local peering, edge UPF, wired rounds 1/5 and one/three mobile
// nodes on two-cell probe sets, plus one slicing strategy and one AR
// deployment (which choose their own probes, so they run as separate
// grids: Grid rejects a slicing strategy crossed with explicit cells).
//
// The digest was computed before route memoization and the slice-based
// Dijkstra were introduced, so it also proves those changes left every
// record byte-identical. Re-pin it only for an intended change to the
// simulation, and say so loudly in the commit message.
func TestSimulatedRecordsGolden(t *testing.T) {
	const want = "e9a31a17f4fb73c69b856bf7f50621ba2d9aef16c3d47db47e48fbcc329d24fc"
	grids := []Grid{
		{
			Seeds:          []uint64{1, 2},
			LocalPeering:   []bool{false, true},
			EdgeUPF:        []bool{false, true},
			MobileNodes:    []int{1, 3},
			TargetCellSets: [][]string{{"B2", "E2"}},
			WiredRounds:    []int{1, 5},
		},
		{
			Seeds:             []uint64{1},
			LocalPeering:      []bool{false, true},
			MobileNodes:       []int{1},
			WiredRounds:       []int{1},
			SlicingStrategies: []slicing.Strategy{slicing.StrategyLatency},
		},
		{
			Seeds:             []uint64{1},
			MobileNodes:       []int{1},
			TargetCellSets:    [][]string{{"C4"}},
			WiredRounds:       []int{1},
			ARGameDeployments: []argame.Deployment{argame.DeployBaseline},
		},
	}
	var all bytes.Buffer
	for i, g := range grids {
		res, err := Run(g, Options{Workers: 2})
		if err != nil {
			t.Fatalf("grid %d: %v", i, err)
		}
		if err := res.WriteJSONL(&all); err != nil {
			t.Fatalf("grid %d: %v", i, err)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(all.Bytes())); got != want {
		t.Fatalf("simulated record digest = %s, want %s (%d bytes): a simulated "+
			"value or the record encoding changed", got, want, all.Len())
	}
}
