package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/argame"
	"repro/internal/corenet"
	"repro/internal/des"
	"repro/internal/probe"
	"repro/internal/slicing"
	"repro/internal/topo"
)

// TestWorldLegsMatchEngine: draw for draw on one RNG, a world leg's
// fixed RTT plus probe.WiredJitter equals the Engine's MobileRTTOn and
// WiredRTTOn over the same routed path, for every
// session and wired pair of the default, peered, edge and peered+edge
// shapes, and both leave the RNG at the same draw.
func TestWorldLegsMatchEngine(t *testing.T) {
	for _, peering := range []bool{false, true} {
		for _, edge := range []bool{false, true} {
			cfg := Config{LocalPeering: peering, EdgeUPF: edge}.withDefaults()
			w, err := buildWorld(shapeOf(cfg))
			if err != nil {
				t.Fatal(err)
			}
			grid, _ := klagenfurt()
			ce := topo.BuildCentralEurope()
			if peering {
				ce.EnableLocalPeering()
			}
			targets, err := AddSectorProbes(ce, grid, cfg.TargetCells)
			if err != nil {
				t.Fatal(err)
			}
			up := corenet.NewUserPlane(ce)
			upf := up.Central
			if edge {
				upf = up.Edge
			}
			eng := probe.NewEngine(up, cfg.Profile)
			n := len(targets)
			name := fmt.Sprintf("peering=%v edge=%v", peering, edge)
			for tgt := range targets {
				sp, err := up.Establish(upf, targets[tgt].Host)
				if err != nil {
					t.Fatalf("%s: target %d: %v", name, tgt, err)
				}
				l := w.sessions[tgt]
				rngA, rngB := des.NewRNG(uint64(tgt)+1), des.NewRNG(uint64(tgt)+1)
				for i := 0; i < 200; i++ {
					cond := w.cond[i%len(w.cond)]
					want := eng.MobileRTTOn(rngA, cond, sp)
					got := cfg.Profile.SampleRTT(rngB, cond) + l.rtt + probe.WiredJitter(rngB, l.hops)
					if got != want {
						t.Fatalf("%s: target %d draw %d: world %v, engine %v", name, tgt, i, got, want)
					}
				}
				if rngA.Uint64() != rngB.Uint64() {
					t.Fatalf("%s: target %d: RNGs left at different draws", name, tgt)
				}
			}
			for src := range targets {
				for dst := range targets {
					if src == dst {
						continue
					}
					p, err := eng.WiredPath(targets[src].Host, targets[dst].Host)
					if err != nil {
						t.Fatalf("%s: pair %d→%d: %v", name, src, dst, err)
					}
					l := w.wired[src*n+dst]
					rngA, rngB := des.NewRNG(uint64(src*n+dst)), des.NewRNG(uint64(src*n+dst))
					for i := 0; i < 50; i++ {
						if want, got := eng.WiredRTTOn(rngA, p), l.rtt+probe.WiredJitter(rngB, l.hops); got != want {
							t.Fatalf("%s: pair %d→%d draw %d: world %v, engine %v", name, src, dst, i, got, want)
						}
					}
					if rngA.Uint64() != rngB.Uint64() {
						t.Fatalf("%s: pair %d→%d: RNGs left at different draws", name, src, dst)
					}
				}
			}
		}
	}
}

// TestWorldSharedRunsMatchSerial: goroutines running one shape at
// different seeds, all asking for its world at once, produce the bytes
// of serial runs that each built a world of their own. Under -race it
// also proves a run writes nothing its world shares.
func TestWorldSharedRunsMatchSerial(t *testing.T) {
	// A shape no other test runs, so the goroutines race to build it.
	base := Config{MobileNodes: 2, WiredRounds: 2, LocalPeering: true, TargetCells: []string{"A3", "F3", "D5"}}
	const runs = 6
	stateBytes := func(res *Result) []byte {
		b, err := json.Marshal(res.State(false))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := make([][]byte, runs)
	for i := range want {
		cfg := base
		cfg.Seed = uint64(i) + 1
		cfg = cfg.withDefaults()
		w, err := buildWorld(shapeOf(cfg))
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.run(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = stateBytes(res)
	}
	got := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := base
			cfg.Seed = uint64(i) + 1
			got[i], errs[i] = Run(cfg)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if string(stateBytes(got[i])) != string(want[i]) {
			t.Errorf("seed %d: shared-world run differs from a serial run on its own world", i+1)
		}
	}
}

// TestWorldMemoCap: a memo keeps maxWorlds shapes; shape maxWorlds+1 is
// served a world but not kept, while kept shapes keep hitting.
func TestWorldMemoCap(t *testing.T) {
	var m worldMemo
	grid, _ := klagenfurt()
	var shapes []shape
	for _, peering := range []bool{false, true} {
		for _, c := range grid.Cells() {
			shapes = append(shapes, shape{peering: peering, cells: []string{c.String()}})
		}
	}
	if len(shapes) <= maxWorlds {
		t.Fatalf("only %d test shapes for a cap of %d", len(shapes), maxWorlds)
	}
	first := make([]*world, maxWorlds)
	for i, s := range shapes[:maxWorlds] {
		w, err := m.get(s)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = w
	}
	over := shapes[maxWorlds]
	w, err := m.get(over)
	if err != nil || w == nil || len(w.sessions) != 1 {
		t.Fatalf("shape past the cap: world %v, err %v; want a one-target world", w, err)
	}
	if _, kept := m.entries.Load(over.key()); kept {
		t.Fatal("shape past the cap was kept")
	}
	if got := m.kept.Load(); got != maxWorlds {
		t.Fatalf("memo counts %d entries, want %d", got, maxWorlds)
	}
	for i, s := range shapes[:maxWorlds] {
		if w, _ := m.get(s); w != first[i] {
			t.Fatalf("kept shape %d rebuilt its world", i)
		}
	}
}

// TestWorldMemoHitAllocatesNothing: looking up a kept shape's world,
// target-cell comparison included, allocates nothing.
func TestWorldMemoHitAllocatesNothing(t *testing.T) {
	var m worldMemo
	s := shapeOf(Config{}.withDefaults())
	if _, err := m.get(s); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { m.get(s) }); n != 0 {
		t.Fatalf("a memo hit allocates %v times, want 0", n)
	}
}

// TestWorldMemoKeepsNoFailedBuild: a shape whose build fails returns its
// error every time and is never kept.
func TestWorldMemoKeepsNoFailedBuild(t *testing.T) {
	var m worldMemo
	s := shape{cells: []string{"Z9"}}
	for i := 0; i < 2; i++ {
		if _, err := m.get(s); err == nil {
			t.Fatal("off-grid probe cell built a world")
		}
	}
	if _, kept := m.entries.Load(s.key()); kept || m.kept.Load() != 0 {
		t.Fatalf("failed build kept (entries %d)", m.kept.Load())
	}
}

// TestWorldMemoChecksCells: an entry under a shape's key that holds
// other target cells — a hash collision — is not used for the shape:
// it is served its own world, and the entry stays as it was.
func TestWorldMemoChecksCells(t *testing.T) {
	var m worldMemo
	s := shape{cells: []string{"B2", "C4"}}
	other := &worldEntry{cells: []string{"F6"}}
	m.entries.Store(s.key(), other)
	w, err := m.get(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.sessions) != 2 {
		t.Fatalf("served a world of %d targets, want the shape's 2", len(w.sessions))
	}
	if v, _ := m.entries.Load(s.key()); v != other || other.w != nil {
		t.Fatal("the colliding entry was replaced or built")
	}
}

// TestWorldLegErrorAtFirstPing: a world whose legs carry routing errors
// returns the error of the first failing leg in firing order, at its
// first ping, and only if the run pings it.
func TestWorldLegErrorAtFirstPing(t *testing.T) {
	cfg := Config{Seed: 1}.withDefaults()
	base, err := buildWorld(shapeOf(cfg))
	if err != nil {
		t.Fatal(err)
	}
	n := len(base.sessions)
	errSession := func(i int) error { return fmt.Errorf("session %d unroutable", i) }
	errWired := func(i, j int) error { return fmt.Errorf("pair %d→%d unroutable", i, j) }
	inject := func(sessions []int, wired [][2]int) *world {
		w := *base
		w.sessions = slices.Clone(base.sessions)
		w.wired = slices.Clone(base.wired)
		for _, i := range sessions {
			w.sessions[i] = leg{err: errSession(i)}
		}
		for _, p := range wired {
			w.wired[p[0]*n+p[1]] = leg{err: errWired(p[0], p[1])}
		}
		return &w
	}
	for _, tc := range []struct {
		name     string
		sessions []int
		wired    [][2]int
		ar       bool
		want     string // "" = the run succeeds
	}{
		// Node 0's first stop pings every target at the same time, in
		// target order, ahead of the other nodes.
		{"sessions fail in target order", []int{5, 3}, nil, false, errSession(3).Error()},
		// Wired round 0 fires at time 0, before any node reaches a cell,
		// source-major.
		{"wired round 0 fires first", []int{0}, [][2]int{{6, 2}, {2, 6}}, false, errWired(2, 6).Error()},
		// AR mode never pings a target, so a session error never shows.
		{"AR mode skips sessions", []int{0, 1, 2, 3, 4, 5, 6, 7}, nil, true, ""},
		{"AR mode still pings wired", nil, [][2]int{{1, 0}}, true, errWired(1, 0).Error()},
	} {
		var ar *argame.Sampler
		if tc.ar {
			if ar, err = argame.NewSampler(argame.DeployBaseline); err != nil {
				t.Fatal(err)
			}
		}
		_, err := inject(tc.sessions, tc.wired).run(cfg, ar)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: err = %v, want success", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestRunErrorPrecedence pins the first error of invalid configs, alone
// and in pairs, to the text the campaign returned before it built
// worlds (the table was taken from that code): counts first, then the
// slicing placement, then the AR deployment, then the probe cells.
func TestRunErrorPrecedence(t *testing.T) {
	latency := func(sites int) *SlicingPlacement {
		return &SlicingPlacement{Strategy: slicing.StrategyLatency, Sites: sites}
	}
	badAR := &ARGameMode{Deployment: argame.Deployment(99)}
	const (
		exclusive = "campaign: Slicing and TargetCells are mutually exclusive"
		tooMany   = "campaign: slicing placement wants 99 sites, sector has 33 candidate cells"
		arErr     = "argame: unknown deployment Deployment(99)"
		offGrid   = "campaign: target cell Z9 outside grid"
		malformed = `campaign: target cell: geo: malformed cell column in "bogus"`
	)
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{TargetCells: []string{"B2"}, Slicing: latency(0)}, exclusive},
		{Config{TargetCells: []string{"Z9"}}, offGrid},
		{Config{TargetCells: []string{"bogus"}}, malformed},
		{Config{TargetCells: []string{"B2", "C99"}}, "campaign: target cell C99 outside grid"},
		{Config{Slicing: latency(99)}, tooMany},
		{Config{Slicing: latency(-1)}, "campaign: slicing placement: slicing: k=-1 with 33 sites"},
		{Config{Slicing: &SlicingPlacement{Strategy: slicing.Strategy(99)}},
			"campaign: slicing placement: slicing: unknown strategy Strategy(99)"},
		{Config{ARGame: badAR}, arErr},
		{Config{MobileNodes: -2}, "campaign: MobileNodes must be >= 0, got -2"},
		{Config{WiredRounds: -1}, "campaign: WiredRounds must be >= 0, got -1"},
		{Config{MobileNodes: -1, WiredRounds: -1}, "campaign: MobileNodes must be >= 0, got -1"},
		{Config{WiredRounds: -1, TargetCells: []string{"Z9"}}, "campaign: WiredRounds must be >= 0, got -1"},
		{Config{MobileNodes: -1, Slicing: latency(99)}, "campaign: MobileNodes must be >= 0, got -1"},
		{Config{TargetCells: []string{"Z9"}, Slicing: latency(99)}, exclusive},
		{Config{Slicing: latency(99), ARGame: badAR}, tooMany},
		{Config{TargetCells: []string{"B2"}, Slicing: latency(0), ARGame: badAR}, exclusive},
		{Config{TargetCells: []string{"Z9"}, ARGame: badAR}, arErr},
		{Config{TargetCells: []string{"bogus"}, ARGame: badAR}, arErr},
		{Config{MobileNodes: -3, ARGame: badAR}, "campaign: MobileNodes must be >= 0, got -3"},
	} {
		tc.cfg.Seed = 1
		_, err := Run(tc.cfg)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Run(%+v): err = %v, want %q", tc.cfg, err, tc.want)
		}
	}
	// Run returns a probe-cell error as AddSectorProbes made it; the
	// build's probeError mark stays inside the package.
	if _, err := Run(Config{Seed: 1, TargetCells: []string{"bogus"}}); errors.As(err, new(probeError)) {
		t.Errorf("Run returns a probe-cell error still marked probeError: %v", err)
	}
}

// TestSharedKlagenfurt: every run, restore and world shares one grid
// and density model.
func TestSharedKlagenfurt(t *testing.T) {
	a := defaultRun(t)
	b, err := Run(Config{Seed: 7, TargetCells: []string{"B2", "C4"}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.State(true).Restore()
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{b, r} {
		if res.Grid != a.Grid || res.Density != a.Density {
			t.Fatal("a result carries its own grid or density model")
		}
	}
	if a.Density.Grid() != a.Grid {
		t.Fatal("the shared density model is over another grid")
	}
}
