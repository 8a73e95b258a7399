package campaign

import (
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"repro/internal/argame"
)

// TestMergeMatchesStableSort checks the merge against the order it
// replaces: every stream's pings concatenated in stream order, then
// stably sorted by time, which is a calendar's (time, insertion
// sequence) order. Timestamps come from a few values so most pings tie
// with pings of other streams and of their own.
func TestMergeMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 500; trial++ {
		streams := make([][]ping, 1+r.IntN(6))
		type fired struct {
			stream int
			p      ping
		}
		var want []fired
		id := 0
		for s := range streams {
			at := time.Duration(r.IntN(3))
			for n := r.IntN(30); n > 0; n-- {
				at += time.Duration(r.IntN(2)) // many equal times
				streams[s] = append(streams[s], ping{at: at, src: id})
				want = append(want, fired{s, ping{at: at, src: id}})
				id++
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].p.at < want[j].p.at })

		m := newMerge(streams)
		for i, w := range want {
			s, p, ok := m.next()
			if !ok {
				t.Fatalf("trial %d: merge drained after %d of %d pings", trial, i, len(want))
			}
			if s != w.stream || p != w.p {
				t.Fatalf("trial %d, ping %d: merge fired stream %d %+v, want stream %d %+v",
					trial, i, s, p, w.stream, w.p)
			}
		}
		if _, _, ok := m.next(); ok {
			t.Fatalf("trial %d: merge fired more than %d pings", trial, len(want))
		}
	}
}

// TestRunSizesSamplesExactly: the streams give every cell's ping count
// before the first ping fires, so each sample straight out of Run holds
// exactly its values, with no growth slack to carry into a cache.
func TestRunSizesSamplesExactly(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 5},
		{Seed: 1, MobileNodes: 1, TargetCells: []string{"B2", "C4"}, WiredRounds: 1},
		{Seed: 2, ARGame: &ARGameMode{Deployment: argame.DeployEdgeUPF}},
	} {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for c, s := range res.Samples {
			if n, k := len(s.Values()), cap(s.Values()); n != k {
				t.Fatalf("%+v: cell %v sample has len %d, cap %d", cfg, c, n, k)
			}
			total += s.N()
		}
		if total != res.TotalMeasurements {
			t.Fatalf("%+v: samples hold %d values, TotalMeasurements = %d", cfg, total, res.TotalMeasurements)
		}
	}
}
