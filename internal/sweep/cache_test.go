package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
)

// countRuns redirects Resolve/executor campaign execution through a
// counter for the duration of a test.
func countRuns(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	orig := runCampaign
	runCampaign = func(cfg campaign.Config) (*campaign.Result, error) {
		n.Add(1)
		return orig(cfg)
	}
	t.Cleanup(func() { runCampaign = orig })
	return &n
}

// stateJSON is the cached result's full serialized state, raw samples
// in their stored order included: any write through a shared result —
// a field store, an Add, an in-place sort — changes these bytes.
func stateJSON(t *testing.T, res *campaign.Result) []byte {
	t.Helper()
	b, err := json.Marshal(res.State(false))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCacheHitsShareOneReadOnlyResult: a warm read copies nothing. The
// miss that filled the entry, every later non-raw Resolve and Get all
// hold the cache's one pointer.
func TestCacheHitsShareOneReadOnlyResult(t *testing.T) {
	cache := NewCache()
	cfg := campaign.Config{Seed: 3}
	first, cached, err := cache.Resolve(cfg, Want{})
	if err != nil || cached {
		t.Fatalf("first Resolve: cached=%v err=%v, want a miss", cached, err)
	}
	again, cached, err := cache.Resolve(cfg, Want{})
	if err != nil || !cached {
		t.Fatalf("second Resolve: cached=%v err=%v, want a hit", cached, err)
	}
	got, ok := cache.Get(ScenarioID(cfg))
	if !ok {
		t.Fatal("expected a cache hit")
	}
	if first != again || again != got {
		t.Fatal("non-raw hits must share the cached result")
	}
}

// TestRawResolveIsPrivate: a Want.Raw result is the caller's own copy,
// hit or miss. Sorting it (Quantile) or appending to it leaves the
// cached entry's serialized state byte-identical.
func TestRawResolveIsPrivate(t *testing.T) {
	cache := NewCache()
	cfg := campaign.Config{Seed: 3}
	id := ScenarioID(cfg)
	for _, step := range []string{"raw miss", "raw hit"} {
		raw, _, err := cache.Resolve(cfg, Want{Raw: true})
		if err != nil {
			t.Fatal(err)
		}
		shared, ok := cache.Get(id)
		if !ok {
			t.Fatalf("%s: entry not cached", step)
		}
		if raw == shared {
			t.Fatalf("%s: Want.Raw returned the shared result", step)
		}
		want := stateJSON(t, shared)
		for _, s := range raw.Samples {
			s.Quantile(0.5)
			s.Add(-1e6)
		}
		raw.Reports[0] = campaign.CellReport{}
		if !bytes.Equal(stateJSON(t, shared), want) {
			t.Fatalf("%s: mutating the raw copy changed the cached entry", step)
		}
	}
}

// TestCachedEntryIsExactSize pins the memory finding behind the one copy
// on insert: campaign.Run grows each cell's sample from a 512-slot
// buffer, and an entry that kept those buffers would hold several times
// its data for its whole lifetime. Whichever kind of caller misses,
// the cached entry's samples are exact-size.
func TestCachedEntryIsExactSize(t *testing.T) {
	for _, want := range []Want{{}, {Raw: true}} {
		cache := NewCache()
		cfg := campaign.Config{Seed: 5}
		if _, _, err := cache.Resolve(cfg, want); err != nil {
			t.Fatal(err)
		}
		res, ok := cache.Get(ScenarioID(cfg))
		if !ok {
			t.Fatal("miss did not cache its result")
		}
		for c, s := range res.Samples {
			if n, k := len(s.Values()), cap(s.Values()); n != k {
				t.Fatalf("Raw=%v: cached sample %v has len %d, cap %d: the entry kept the run's growth slack",
					want.Raw, c, n, k)
			}
		}
	}
}

// TestGetOrRunSingleflight proves concurrent misses on one scenario
// hash run the campaign exactly once.
func TestGetOrRunSingleflight(t *testing.T) {
	runs := countRuns(t)
	cache := NewCache()
	cfg := campaign.Config{Seed: 17}

	const callers = 8
	results := make([]*campaign.Result, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, _, err := cache.Resolve(cfg, Want{})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	close(start)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("%d concurrent misses ran the campaign %d times, want 1", callers, got)
	}
	for i := 1; i < callers; i++ {
		if results[i] == nil || results[i] != results[0] {
			t.Fatal("every caller must share the one cached result")
		}
	}
}

func TestGetOrRunSingleflightSharesError(t *testing.T) {
	runs := countRuns(t)
	cache := NewCache()
	// An off-grid target cell fails campaign setup deterministically.
	cfg := campaign.Config{Seed: 1, TargetCells: []string{"Z9"}}

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = cache.Resolve(cfg, Want{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d: expected the shared failure", i)
		}
	}
	// Failures are not cached: a later call retries.
	if _, _, err := cache.Resolve(cfg, Want{}); err == nil {
		t.Fatal("failure must not be cached as success")
	}
	if runs.Load() < 2 {
		t.Fatal("a failed flight should be retriable")
	}
}

// TestGetOrRunReleasesFlightOnPanic: a panic while simulating must not
// wedge the scenario key — waiters wake and a later call re-runs.
func TestGetOrRunReleasesFlightOnPanic(t *testing.T) {
	orig := runCampaign
	t.Cleanup(func() { runCampaign = orig })
	first := true
	runCampaign = func(cfg campaign.Config) (*campaign.Result, error) {
		if first {
			first = false
			panic("injected simulator failure")
		}
		return orig(cfg)
	}

	cache := NewCache()
	cfg := campaign.Config{Seed: 23}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected the injected panic to propagate")
			}
		}()
		cache.Resolve(cfg, Want{})
	}()

	done := make(chan error, 1)
	go func() {
		_, _, err := cache.Resolve(cfg, Want{})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Resolve deadlocked on a key whose leader panicked")
	}
}

func TestCacheLimitEvictsLRU(t *testing.T) {
	cache := NewCache()
	cache.SetLimit(2)
	ids := make([]string, 3)
	for i, seed := range []uint64{1, 2, 3} {
		cfg := campaign.Config{Seed: seed}
		ids[i] = ScenarioID(cfg)
		if _, _, err := cache.Resolve(cfg, Want{}); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() != 2 {
		t.Fatalf("bounded cache holds %d entries, want 2", cache.Len())
	}
	if _, ok := cache.Get(ids[0]); ok {
		t.Fatal("least-recently-used entry should have been evicted")
	}
	for _, id := range ids[1:] {
		if _, ok := cache.Get(id); !ok {
			t.Fatalf("recent entry %s was evicted", id)
		}
	}
	// Touching an entry protects it from the next eviction.
	cache.Get(ids[1])
	if _, _, err := cache.Resolve(campaign.Config{Seed: 4}, Want{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(ids[1]); !ok {
		t.Fatal("recently touched entry was evicted instead of the LRU one")
	}
}

// fakeStore is an in-memory BackingStore for layering tests.
type fakeStore struct {
	mu     sync.Mutex
	m      map[string]campaign.ResultState
	gets   atomic.Int64
	puts   atomic.Int64
	failed bool
}

func newFakeStore() *fakeStore { return &fakeStore{m: make(map[string]campaign.ResultState)} }

func (f *fakeStore) Get(id string) (*campaign.Result, bool) {
	f.gets.Add(1)
	f.mu.Lock()
	st, ok := f.m[id]
	f.mu.Unlock()
	if !ok {
		return nil, false
	}
	res, err := st.Restore()
	if err != nil {
		return nil, false
	}
	return res, true
}

func (f *fakeStore) Put(id string, res *campaign.Result) error {
	f.puts.Add(1)
	if f.failed {
		return errors.New("disk full")
	}
	f.mu.Lock()
	f.m[id] = res.State(false)
	f.mu.Unlock()
	return nil
}

func TestPersistentCacheReadsThroughAndWritesThrough(t *testing.T) {
	st := newFakeStore()
	warm := NewPersistentCache(st)
	cfg := campaign.Config{Seed: 6}
	orig, _, err := warm.Resolve(cfg, Want{})
	if err != nil {
		t.Fatal(err)
	}
	if st.puts.Load() != 1 {
		t.Fatalf("Put reached the store %d times, want 1", st.puts.Load())
	}

	// A fresh cache over the same store — the process-restart shape —
	// serves the scenario from disk without re-running.
	runs := countRuns(t)
	cold := NewPersistentCache(st)
	res, ok := cold.Get(ScenarioID(cfg))
	if !ok {
		t.Fatal("read-through miss: scenario not served from the store")
	}
	if runs.Load() != 0 {
		t.Fatal("disk hit must not re-run the campaign")
	}
	if res.MobileAll.Snapshot() != orig.MobileAll.Snapshot() {
		t.Fatal("disk round-trip changed the result")
	}
	// The disk hit is now memoized: the next Get stays off disk.
	before := st.gets.Load()
	if _, ok := cold.Get(ScenarioID(cfg)); !ok {
		t.Fatal("memoized disk hit lost")
	}
	if st.gets.Load() != before {
		t.Fatal("second Get should be served from memory, not disk")
	}
}

// TestPersistentCacheKeepsRawSamplesInTheStore: with a store behind
// the cache, a shared miss keeps only a summary-only copy in memory —
// warm reads need nothing more — while the store gets the full record,
// so a raw caller is served from disk instead of re-simulating.
func TestPersistentCacheKeepsRawSamplesInTheStore(t *testing.T) {
	runs := countRuns(t)
	st := newFakeStore()
	cache := NewPersistentCache(st)
	cfg := campaign.Config{Seed: 6}
	shared, _, err := cache.Resolve(cfg, Want{})
	if err != nil {
		t.Fatal(err)
	}
	if !shared.SummaryOnly {
		t.Fatal("a store-backed shared miss should cache a summary-only copy")
	}
	for c, s := range shared.Samples {
		if len(s.Values()) != 0 {
			t.Fatalf("summary-only entry kept %d raw samples for %v", len(s.Values()), c)
		}
	}
	raw, cached, err := cache.Resolve(cfg, Want{Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	if !cached || runs.Load() != 1 {
		t.Fatalf("raw read: cached=%v after %d runs, want a store hit after 1", cached, runs.Load())
	}
	if raw.SummaryOnly || raw.MobileAll.Snapshot() != shared.MobileAll.Snapshot() {
		t.Fatal("raw read did not return the full stored result")
	}
}

func TestPersistentCacheSurvivesStoreFailure(t *testing.T) {
	st := newFakeStore()
	st.failed = true
	cache := NewPersistentCache(st)
	if _, _, err := cache.Resolve(campaign.Config{Seed: 8}, Want{}); err != nil {
		t.Fatalf("a failing store must not fail the run: %v", err)
	}
	if cache.StoreErrors() != 1 {
		t.Fatalf("StoreErrors = %d, want 1", cache.StoreErrors())
	}
	if _, ok := cache.Get(ScenarioID(campaign.Config{Seed: 8})); !ok {
		t.Fatal("result must stay cached in memory despite the store failure")
	}
}
