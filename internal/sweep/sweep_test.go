package sweep

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/argame"
	"repro/internal/campaign"
	"repro/internal/des"
	"repro/internal/ran"
	"repro/internal/slicing"
)

func TestGridDefaultsToBaseline(t *testing.T) {
	scs, err := Grid{}.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 {
		t.Fatalf("zero grid expands to %d scenarios, want 1", len(scs))
	}
	cfg := scs[0].Config.Canonical()
	if cfg.Profile != ran.Profile5G || cfg.MobileNodes != 3 || cfg.LocalPeering || cfg.EdgeUPF {
		t.Fatalf("zero grid is not the paper baseline: %+v", cfg)
	}
}

func TestGridExpansionOrderAndSize(t *testing.T) {
	g := Grid{
		Seeds:        []uint64{1, 2, 3},
		Profiles:     []*ran.Profile{ran.Profile5G, ran.Profile6G},
		EdgeUPF:      []bool{false, true},
		LocalPeering: []bool{false, true},
	}
	if n, err := g.Size(); err != nil || n != 24 {
		t.Fatalf("Size = %d, %v, want 24", n, err)
	}
	scs, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 24 {
		t.Fatalf("expanded %d scenarios, want 24", len(scs))
	}
	ids := make(map[string]bool)
	for i, sc := range scs {
		if sc.Index != i {
			t.Fatalf("scenario %d has Index %d", i, sc.Index)
		}
		if ids[sc.ID] {
			t.Fatalf("duplicate scenario ID %s", sc.ID)
		}
		ids[sc.ID] = true
	}
	// Seeds are innermost: the first three scenarios are replications of
	// one variant.
	if scs[0].Variant != scs[1].Variant || scs[1].Variant != scs[2].Variant {
		t.Fatal("replications of one variant are not adjacent")
	}
	if scs[2].Variant == scs[3].Variant {
		t.Fatal("variant boundary missing after the seed axis")
	}
}

func TestGridRejectsDuplicates(t *testing.T) {
	if _, err := (Grid{Seeds: []uint64{7, 7}}).Scenarios(); err == nil {
		t.Fatal("duplicate seeds should be rejected")
	}
}

func TestDerivedSeedsAreStableAndDistinct(t *testing.T) {
	g := Grid{BaseSeed: 42, Replications: 4}
	a, b := g.SeedAxis(), g.SeedAxis()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("derived seeds are not stable")
		}
		if a[i] != des.DeriveSeed(42, "sweep-rep-"+string(rune('0'+i))) {
			t.Fatalf("seed %d does not match its des sub-stream", i)
		}
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatal("derived seeds collide")
		}
		seen[s] = true
	}
}

func TestScenarioIDCanonicalization(t *testing.T) {
	zero := campaign.Config{Seed: 9}
	explicit := campaign.Config{Seed: 9, MobileNodes: 3, Profile: ran.Profile5G, WiredRounds: 5,
		TargetCells: []string{"B2", "E2", "A3", "C4", "F3", "B5", "D5", "C6"}}
	if ScenarioID(zero) != ScenarioID(explicit) {
		t.Fatal("zero config and explicit defaults must hash identically")
	}
	for _, alt := range []campaign.Config{
		{Seed: 10},
		{Seed: 9, EdgeUPF: true},
		{Seed: 9, LocalPeering: true},
		{Seed: 9, MobileNodes: 5},
		{Seed: 9, Profile: ran.Profile6G},
		{Seed: 9, TargetCells: []string{"B2"}},
	} {
		if ScenarioID(alt) == ScenarioID(zero) {
			t.Fatalf("config %+v should not collide with the baseline", alt)
		}
	}
	if VariantID(campaign.Config{Seed: 1}) != VariantID(campaign.Config{Seed: 2}) {
		t.Fatal("VariantID must ignore the seed")
	}
	if VariantID(campaign.Config{Seed: 1}) == VariantID(campaign.Config{Seed: 1, EdgeUPF: true}) {
		t.Fatal("VariantID must distinguish deployments")
	}
}

func TestScenarioIDCoversEveryConfigField(t *testing.T) {
	// hashConfig hand-enumerates campaign.Config; if the struct grows a
	// field the hash does not cover, two differing configs would share
	// a scenario ID and the shared cache would hand back the wrong
	// result. Fail here first. (cmd/sweepvet's appendonlyhash analyzer
	// enforces the same contract statically, with field-exact
	// diagnostics.)
	if n := reflect.TypeOf(campaign.Config{}).NumField(); n != hashedConfigFields {
		t.Fatalf("campaign.Config has %d fields but hashConfig covers %d: "+
			"extend hashConfig (and this constant) so scenario identity stays complete",
			n, hashedConfigFields)
	}
}

// TestScenarioIDAllAxesGolden pins the scenario-ID stream of a grid
// that exercises every axis at a non-default value — wired rounds,
// slicing and AR-game included. The digest covers all 512 IDs in
// expansion order, so any reshaping of the hash, the expansion order,
// or an axis's fold-in changes it; the spot IDs turn "digest changed"
// into a pointer at which region moved. A reflection guard keeps the
// grid honest: when Grid grows a new axis slice, this test refuses to
// pass until the grid here exercises it.
func TestScenarioIDAllAxesGolden(t *testing.T) {
	g := Grid{
		Seeds:             []uint64{3, 4},
		Profiles:          []*ran.Profile{ran.Profile5G, ran.Profile6G},
		LocalPeering:      []bool{false, true},
		EdgeUPF:           []bool{false, true},
		MobileNodes:       []int{0, 5},
		TargetCellSets:    [][]string{nil, {"B2", "E2"}},
		WiredRounds:       []int{0, 9},
		SlicingStrategies: []slicing.Strategy{slicing.StrategyNone, slicing.StrategyLatency},
		ARGameDeployments: []argame.Deployment{argame.DeployNone, argame.DeployBaseline},
	}

	gv := reflect.ValueOf(g)
	for i := 0; i < gv.NumField(); i++ {
		f := gv.Type().Field(i)
		if f.Type.Kind() == reflect.Slice && gv.Field(i).Len() == 0 {
			t.Fatalf("Grid axis %s is not exercised by the all-axes golden grid: "+
				"add a non-default value for it (and re-pin the goldens) so the new "+
				"axis's fold-in is covered", f.Name)
		}
	}

	scs, err := g.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 512 {
		t.Fatalf("all-axes grid expanded to %d scenarios, want 512", len(scs))
	}
	ids := make([]string, len(scs))
	seen := make(map[string]bool, len(scs))
	for i, sc := range scs {
		if seen[sc.ID] {
			t.Fatalf("duplicate scenario ID %s at index %d", sc.ID, i)
		}
		seen[sc.ID] = true
		ids[i] = sc.ID
	}

	// Spot pins: the all-defaults corner must equal the plain baseline
	// hash (axes at their defaults are invisible), and a few interior
	// corners localize a digest mismatch.
	if ids[0] != ScenarioID(campaign.Config{Seed: 3}) {
		t.Errorf("ids[0] = %s does not match the bare Seed-3 baseline ID", ids[0])
	}
	for _, spot := range []struct {
		index int
		id    string
	}{
		{0, "c625102f46b73bfb"},
		{1, "26cbbaab9fc9ff5c"},
		{255, "6a1e45c716285c91"},
		{256, "725bc832bbb7d876"},
		{511, "40ed46926632b421"},
	} {
		if ids[spot.index] != spot.id {
			t.Errorf("ids[%d] = %s, want %s (a deployed cache covering this region "+
				"would stop serving hits)", spot.index, ids[spot.index], spot.id)
		}
	}

	const wantDigest = "eccdd137bc081fbb5c3eb9e55f1c0f257cc8ea952de564717362ffe0191e125f"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(ids, "\n")))); got != wantDigest {
		t.Errorf("all-axes scenario-ID digest = %s, want %s: the ID stream moved; "+
			"if this is a deliberate format break, re-pin the goldens and say so "+
			"loudly — every deployed cache directory re-simulates from scratch", got, wantDigest)
	}
}

func TestProfileByName(t *testing.T) {
	for _, p := range ran.Profiles {
		got, ok := ran.ProfileByName(p.Name)
		if !ok || got != p {
			t.Fatalf("ProfileByName(%q) = %v, %v", p.Name, got, ok)
		}
	}
	if _, ok := ran.ProfileByName("lte"); ok {
		t.Fatal("unknown profile name should miss")
	}
}

func TestCacheSkipsCompletedScenarios(t *testing.T) {
	cache := NewCache()
	g := Grid{Seeds: []uint64{1, 2}}
	first, err := Run(g, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHits != 0 || first.CacheMisses != 2 {
		t.Fatalf("first run hits/misses = %d/%d, want 0/2", first.CacheHits, first.CacheMisses)
	}
	second, err := Run(g, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != 2 || second.CacheMisses != 0 {
		t.Fatalf("second run hits/misses = %d/%d, want 2/0", second.CacheHits, second.CacheMisses)
	}
	for i := range first.Scenarios {
		f, s := first.Scenarios[i].Result, second.Scenarios[i].Result
		if f != s {
			t.Fatal("a miss and the later hit must share the cached result")
		}
		if f.MobileAll.Snapshot() != s.MobileAll.Snapshot() ||
			f.Wired.Snapshot() != s.Wired.Snapshot() ||
			f.TotalMeasurements != s.TotalMeasurements {
			t.Fatal("cached result differs from the original run")
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", cache.Len())
	}
}

func TestCacheGetOrRunKeyedByFullConfig(t *testing.T) {
	cache := NewCache()
	base, _, err := cache.Resolve(ScenarioOf(campaign.Config{Seed: 5}), Want{})
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := cache.Resolve(ScenarioOf(campaign.Config{Seed: 5}), Want{})
	if err != nil {
		t.Fatal(err)
	}
	// A hit is the cached result itself, shared read-only.
	if base != again {
		t.Fatal("a non-raw hit must share the cached result, not copy it")
	}
	if base.MobileAll.Snapshot() != again.MobileAll.Snapshot() ||
		base.TotalMeasurements != again.TotalMeasurements {
		t.Fatal("same config must hit the cache")
	}
	edge, _, err := cache.Resolve(ScenarioOf(campaign.Config{Seed: 5, EdgeUPF: true}), Want{})
	if err != nil {
		t.Fatal(err)
	}
	if edge.MobileAll.Mean() == base.MobileAll.Mean() {
		t.Fatal("edge-UPF campaign should measure a different mobile mean")
	}
}

func TestAggregateMergesReplications(t *testing.T) {
	res, err := Run(Grid{Seeds: []uint64{1, 2}, EdgeUPF: []bool{false, true}},
		Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 2 {
		t.Fatalf("got %d variants, want 2", len(res.Variants))
	}
	for _, v := range res.Variants {
		if len(v.Seeds) != 2 {
			t.Fatalf("variant %s has %d seeds, want 2", v.ID, len(v.Seeds))
		}
		// The headline summary and the cell grid share one reporting
		// rule: Mobile merges exactly the reported cells' samples.
		var reportedN int
		for _, c := range v.Cells {
			if c.Reported {
				reportedN += c.N
			}
		}
		if v.Mobile.N() != reportedN {
			t.Fatalf("variant %s merged %d samples, reported cells hold %d",
				v.ID, v.Mobile.N(), reportedN)
		}
		var cellN int
		for _, c := range v.Cells {
			cellN += c.N
		}
		var wantCellN int
		for _, run := range res.Scenarios {
			if run.Variant == v.ID {
				wantCellN += run.Result.TotalMeasurements
			}
		}
		if cellN != wantCellN {
			t.Fatalf("variant %s cell samples %d, want %d", v.ID, cellN, wantCellN)
		}
	}
}

func TestDeltasScoreRecommendations(t *testing.T) {
	res, err := Run(Grid{
		Seeds:        []uint64{1},
		EdgeUPF:      []bool{false, true},
		LocalPeering: []bool{false, true},
	}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	variantCfg := func(id string) campaign.Config {
		for _, v := range res.Variants {
			if v.ID == id {
				return v.Config
			}
		}
		t.Fatalf("delta references unknown variant %s", id)
		return campaign.Config{}
	}
	deltas := res.Deltas()
	// Two edge-UPF pairs (peering off/on) and two peering pairs (edge
	// off/on).
	var edge, peering int
	for _, d := range deltas {
		switch d.Axis {
		case "edge_upf":
			edge++
			if len(d.Cells) == 0 {
				t.Fatal("edge delta has no per-cell rows")
			}
			// Edge anchoring only pays off once the breakout stops
			// detouring over transit (Section V-A + V-B compose).
			if variantCfg(d.Alt).LocalPeering && d.MeanReductionMs <= 0 {
				t.Fatalf("edge UPF with peering should reduce latency, got %+.2f ms",
					d.MeanReductionMs)
			}
		case "local_peering":
			peering++
			if d.MeanReductionMs <= 0 {
				t.Fatalf("local peering should reduce latency, got %+.2f ms", d.MeanReductionMs)
			}
		}
	}
	if edge != 2 || peering != 2 {
		t.Fatalf("got %d edge / %d peering deltas, want 2/2", edge, peering)
	}
}

func TestJSONLWellFormed(t *testing.T) {
	res, err := Run(Grid{Seeds: []uint64{1, 2}}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.ExportJSONL()
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	var lines int
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		if rec.Scenario == "" || rec.Profile == "" || rec.Measurements == 0 {
			t.Fatalf("line %d is missing fields: %+v", lines, rec)
		}
		if rec.Mobile.Mean <= rec.Wired.Mean {
			t.Fatalf("line %d: mobile mean should exceed wired", lines)
		}
		lines++
	}
	if lines != len(res.Scenarios) {
		t.Fatalf("JSONL has %d lines, want %d", lines, len(res.Scenarios))
	}
}

func TestRunPropagatesScenarioError(t *testing.T) {
	// A target cell outside the grid makes AddSectorProbes fail.
	_, err := Run(Grid{Seeds: []uint64{1}, TargetCellSets: [][]string{{"Z9"}}},
		Options{Workers: 2})
	if err == nil {
		t.Fatal("invalid scenario should fail the sweep")
	}
}

// TestScenarioOfAllocs: identifying a scenario allocates its two ID
// strings and, for a config that leaves its target cells to the
// default, the default cell list canonicalization fills in — nothing
// for building or hex-encoding the hashed string.
func TestScenarioOfAllocs(t *testing.T) {
	cases := []struct {
		name string
		cfg  campaign.Config
		max  float64
	}{
		{"default", campaign.Config{Seed: 1}, 3},
		{"small", campaign.Config{Seed: 1, MobileNodes: 1, WiredRounds: 1, TargetCells: []string{"B2", "C4"}}, 2},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, func() { ScenarioOf(c.cfg) }); got > c.max {
			t.Errorf("%s: ScenarioOf allocates %.0f times, want at most %.0f", c.name, got, c.max)
		}
	}
}
