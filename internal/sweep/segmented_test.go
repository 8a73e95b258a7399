package sweep_test

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

// TestSegmentedStoreSingleflightUnderConcurrency hammers Put/Get/
// Resolve across shards from many goroutines (run under -race in CI)
// and asserts the cache's singleflight still runs each scenario exactly
// once with the segmented backend underneath — and that a fresh cache
// over the same store then serves everything from segments.
func TestSegmentedStoreSingleflightUnderConcurrency(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cache := sweep.NewPersistentCache(st)
	runs := sweep.CountRuns(t)

	cfgs := []campaign.Config{{Seed: 201}, {Seed: 202}, {Seed: 203}, {Seed: 204}}
	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := range cfgs {
				// Spread the goroutines over the keys in different
				// orders so flights overlap across shards.
				cfg := cfgs[(i+w)%len(cfgs)]
				res, _, err := cache.Resolve(sweep.ScenarioOf(cfg), sweep.Want{})
				if err != nil {
					t.Errorf("Resolve(seed %d): %v", cfg.Seed, err)
					return
				}
				if res == nil {
					t.Errorf("Resolve(seed %d) returned nil result", cfg.Seed)
					return
				}
				// Interleave plain Gets; hit or miss both legal while
				// flights are in progress.
				cache.Get(sweep.ScenarioID(cfg))
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := runs.Load(); got != int64(len(cfgs)) {
		t.Fatalf("%d workers over %d keys ran %d campaigns, want %d",
			workers, len(cfgs), got, len(cfgs))
	}

	// A cold cache over the same store: all four served from segments,
	// zero simulations.
	cold := sweep.NewPersistentCache(st)
	for _, cfg := range cfgs {
		if _, ok := cold.Get(sweep.ScenarioID(cfg)); !ok {
			t.Fatalf("scenario %s not served from the segmented store", sweep.ScenarioID(cfg))
		}
	}
	if got := runs.Load(); got != int64(len(cfgs)) {
		t.Fatalf("cold reads re-simulated: %d runs", got)
	}
}

// TestGetOrRunFullReSimulatesCompactHit is the regression test for the
// raw-samples gap: a driver that needs quantiles (Want.Raw) must not
// accept a compact (summary-only) disk hit — it has to re-simulate —
// while a plain Resolve keeps serving the cheap compact record.
func TestGetOrRunFullReSimulatesCompactHit(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.Config{Seed: 31}
	warm := sweep.NewPersistentCache(st)
	if _, _, err := warm.Resolve(sweep.ScenarioOf(cfg), sweep.Want{}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Restart against the compact store.
	st2, err := store.Open(dir, store.Options{Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cache := sweep.NewPersistentCache(st2)
	runs := sweep.CountRuns(t)

	// The summary-only hit is fine for moment consumers...
	res, _, err := cache.Resolve(sweep.ScenarioOf(cfg), sweep.Want{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SummaryOnly {
		t.Fatal("compact store should serve a summary-only record")
	}
	if runs.Load() != 0 {
		t.Fatal("a plain Resolve must accept the compact hit")
	}
	if q := res.Samples[res.Reports[0].Cell].Quantile(0.95); !math.IsNaN(q) {
		t.Fatalf("summary-only result yielded quantile %v, expected NaN", q)
	}

	// ...but a quantile consumer must get the real thing.
	full, _, err := cache.Resolve(sweep.ScenarioOf(cfg), sweep.Want{Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("a raw Resolve ran %d campaigns, want 1 (re-simulation)", runs.Load())
	}
	if full.SummaryOnly {
		t.Fatal("a raw Resolve returned a summary-only result")
	}
	q := full.Samples[full.Reports[0].Cell].Quantile(0.95)
	if math.IsNaN(q) || q <= 0 {
		t.Fatalf("re-simulated result has unusable p95 %v", q)
	}

	// The full result replaced the compact entry in memory: another
	// full request is free.
	if _, _, err := cache.Resolve(sweep.ScenarioOf(cfg), sweep.Want{Raw: true}); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("second raw Resolve re-simulated (%d runs)", runs.Load())
	}
}

// TestSweepNeedRawSamplesOverCompactStore is the executor-level slice
// of the same gap: a sweep whose consumers need raw samples re-runs
// compact-cached scenarios instead of reporting hits with empty
// sample sets.
func TestSweepNeedRawSamplesOverCompactStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Run(persistGrid, sweep.Options{Workers: 2, Cache: sweep.NewPersistentCache(st)}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := store.Open(dir, store.Options{Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	res, err := sweep.Run(persistGrid, sweep.Options{Workers: 2,
		Cache: sweep.NewPersistentCache(st2), NeedRawSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 || res.CacheMisses != len(res.Scenarios) {
		t.Fatalf("raw-needing sweep over a compact store: hits/misses = %d/%d, want 0/%d",
			res.CacheHits, res.CacheMisses, len(res.Scenarios))
	}
	for _, run := range res.Scenarios {
		if run.Result.SummaryOnly {
			t.Fatalf("scenario %s still summary-only", run.ID)
		}
		if len(run.Result.Samples[run.Result.Reports[0].Cell].Values()) == 0 {
			t.Fatalf("scenario %s has no raw samples", run.ID)
		}
	}
}

// --- v1 migration golden -----------------------------------------------------

// v1Grid is the grid the checked-in testdata/v1layout directory was
// built from (see TestGenerateV1LayoutTestdata).
var v1Grid = sweep.Grid{
	Seeds:   []uint64{1, 2},
	EdgeUPF: []bool{false, true},
}

// copyTree clones the checked-in v1 layout into a scratch directory —
// migration rewrites it in place.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestV1LayoutMigratesAndServesGoldenJSONL opens the checked-in
// miniature v1 cache directory, which must migrate to segments and then
// serve the whole grid as cache hits with JSONL byte-identical to the
// checked-in golden file.
func TestV1LayoutMigratesAndServesGoldenJSONL(t *testing.T) {
	src := filepath.Join("testdata", "v1layout")
	if _, err := os.Stat(src); err != nil {
		t.Fatalf("checked-in v1 layout missing: %v (regenerate with GEN_V1_TESTDATA=1)", err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "v1golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyTree(t, src, dir)

	runs := sweep.CountRuns(t)
	st, err := store.Open(dir, store.Options{Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := os.Stat(filepath.Join(dir, "records")); !os.IsNotExist(err) {
		t.Fatal("v1 records/ directory must be gone after migration")
	}
	if _, err := os.Stat(filepath.Join(dir, "segments")); err != nil {
		t.Fatalf("segments/ missing after migration: %v", err)
	}

	res, err := sweep.Run(v1Grid, sweep.Options{Workers: 2, Cache: sweep.NewPersistentCache(st)})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 0 {
		t.Fatalf("migrated store re-simulated %d scenarios, want 0", runs.Load())
	}
	if res.CacheMisses != 0 || res.CacheHits != len(res.Scenarios) {
		t.Fatalf("migrated store served %d/%d hits, want %d/0",
			res.CacheHits, res.CacheMisses, len(res.Scenarios))
	}
	jsonl, err := res.ExportJSONL()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonl, golden) {
		t.Fatal("JSONL from the migrated v1 store differs from the golden file")
	}
}

// TestGenerateV1LayoutTestdata regenerates testdata/v1layout and
// testdata/v1golden.jsonl. It is the provenance record for the
// checked-in files, not a test: it runs only with GEN_V1_TESTDATA=1
// and writes the v1 one-file-per-record layout by hand, since the
// store itself can no longer produce it.
func TestGenerateV1LayoutTestdata(t *testing.T) {
	if os.Getenv("GEN_V1_TESTDATA") == "" {
		t.Skip("set GEN_V1_TESTDATA=1 to regenerate testdata/v1layout")
	}
	res, err := sweep.Run(v1Grid, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	jsonl, err := res.ExportJSONL()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join("testdata", "v1layout")
	if err := os.RemoveAll(root); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "records"), 0o755); err != nil {
		t.Fatal(err)
	}
	idx, err := os.Create(filepath.Join(root, "index.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	type v1record struct {
		V      int                  `json:"v"`
		ID     string               `json:"id"`
		Result campaign.ResultState `json:"result"`
	}
	for _, run := range res.Scenarios {
		// Compact states keep the checked-in files small; the sweep
		// JSONL needs only moments, which compact records preserve.
		data, err := json.Marshal(v1record{V: 1, ID: run.ID, Result: run.Result.State(true)})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "records", run.ID+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		line, _ := json.Marshal(map[string]any{"v": 1, "id": run.ID})
		if _, err := idx.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join("testdata", "v1golden.jsonl"), jsonl, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d v1 records and %d JSONL bytes", len(res.Scenarios), len(jsonl))
}
