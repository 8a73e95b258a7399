package sweep

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// BackingStore is a persistent layer under a Cache: the disk store
// (internal/sweep/store) implements it. Get misses must be cheap and
// never fatal; Put errors are surfaced to the cache's error counter but
// never fail a sweep. Has answers warmth checks without reading or
// decoding a record; it may over-report one that turns out corrupt on
// Get, never under-report.
type BackingStore interface {
	Get(id string) (*campaign.Result, bool)
	Put(id string, res *campaign.Result) error
	Has(id string) bool
}

// DefaultSharedLimit bounds the process-wide Shared cache. Before the
// limit existed, every scenario ever simulated stayed resident —
// unbounded growth over a long-lived process sweeping large grids. With
// a backing store attached, evicted entries are only a disk read away.
const DefaultSharedLimit = 1024

// Cache memoizes completed campaign results by scenario content hash.
// Campaigns are deterministic, so a hit is indistinguishable from a
// re-run; caching only removes wall-clock.
//
// Cached results are shared and read-only: Resolve and Get hand every
// caller the cache's own pointer, so a warm read copies nothing. A
// caller must not write through it — no field or map stores, and no
// Sample method that sorts in place (Quantile, FractionBelow) or
// appends (Add). Callers that need raw samples ask
// for Want.Raw and get a private Clone they may sort.
// sweepvet's sharedresult check flags writes through a non-raw
// Resolve result.
//
// An entry also memoizes its record's wire bytes, one slot per
// Encoding, filled on the first Rendered call in that encoding. A
// record depends on its scenario ID alone, so the bytes are as shared
// and read-only as the result, and sharedresult guards them too.
//
// A cache may be bounded (SetLimit) — entries evict least-recently-used
// — and may be layered over a BackingStore (AttachStore), which makes
// reads read-through and inserts write-through: misses consult disk
// before simulating, fresh results persist before Resolve returns.
// With a store attached, a fresh result that no raw caller asked for
// stays in memory summary-only: the store keeps its raw samples. The
// zero value is not usable; construct with NewCache or
// NewPersistentCache.
type Cache struct {
	mu       sync.Mutex
	m        map[string]*list.Element // id → lru element holding *entry
	lru      *list.List               // front = most recently used
	limit    int                      // ≤ 0 means unbounded
	store    BackingStore
	inflight map[string]*flight
	// runner simulates a miss (campaign.Run when nil). It receives the
	// caller's stage observer so the serving layer can attribute
	// admission-queue wait and simulation time to the request that
	// paid for them.
	runner    func(campaign.Config, obs.StageObserver) (*campaign.Result, error)
	storeErrs atomic.Int64
}

// Want says what a Resolve caller needs beyond a read-only result.
type Want struct {
	// Raw asks for a private copy carrying raw per-cell samples, for
	// callers deriving quantiles or fractions below a bound (which sort the
	// samples in place). A summary-only entry does not serve it: the
	// read falls through to the store, and when that holds no full
	// record either (a compact store) the scenario re-simulates instead
	// of handing back quantiles that silently read as zero. The full
	// result replaces the summary-only entry in memory; a compact-mode
	// backing store still persists it summary-only, so over a compact
	// store raw callers re-simulate once per process rather than once
	// per call. Without Raw, a result may be summary-only.
	Raw bool
	// Stages, when non-nil, receives the cache's read and
	// singleflight-wait phases, and reaches the runner (SetRunner) so
	// admission wait and simulation time join the same request
	// timeline. Timings feed metrics and traces only, never results.
	Stages obs.StageObserver
}

// Encoding names one wire form of a scenario's record, each memoized
// in its own slot of a cache entry.
type Encoding int

const (
	// EncodingJSON is one JSON record line, newline included.
	EncodingJSON Encoding = iota
	// EncodingTLV is one framed v3 TLV record.
	EncodingTLV
	numEncodings
)

type entry struct {
	id  string
	res *campaign.Result
	// rendered holds the record's bytes per Encoding, nil until first
	// asked for. A result swap (insert over a summary-only entry)
	// keeps them: the record is the same.
	rendered [numEncodings][]byte
}

// flight is one in-progress simulation; concurrent callers for the
// same key wait on it instead of re-running the campaign. Only the
// error is shared through the flight — on success followers re-read
// the now-warm cache.
type flight struct {
	done chan struct{}
	err  error
}

// NewCache returns an empty, unbounded, memory-only cache.
func NewCache() *Cache {
	return &Cache{
		m:        make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*flight),
	}
}

// NewPersistentCache returns a cache layered over a backing store.
func NewPersistentCache(s BackingStore) *Cache {
	c := NewCache()
	c.store = s
	return c
}

// Shared is the process-wide cache: sweeps and the experiment drivers
// both consult it, so an artefact regenerated after a sweep (or vice
// versa) reuses the completed scenario instead of re-simulating it. It
// is bounded (DefaultSharedLimit, LRU) so long-lived processes don't
// grow without bound; attach a disk store (AttachStore) to make
// eviction free and to survive restarts.
var Shared = func() *Cache {
	c := NewCache()
	c.SetLimit(DefaultSharedLimit)
	return c
}()

// SetLimit bounds the number of in-memory entries; 0 or negative means
// unbounded. Shrinking below the current size evicts immediately,
// least-recently-used first.
func (c *Cache) SetLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = n
	c.evictLocked()
}

// AttachStore layers a backing store under the cache. Existing
// in-memory entries are not flushed retroactively; entries inserted
// from then on persist.
func (c *Cache) AttachStore(s BackingStore) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = s
}

// StoreErrors returns how many backing-store writes failed. Persistence
// is best-effort — a full disk degrades the cache, never the sweep —
// so failures count rather than propagate.
func (c *Cache) StoreErrors() int64 { return c.storeErrs.Load() }

// Get returns the cached result for a scenario ID, consulting the
// backing store on a memory miss. The result is shared and read-only
// (see Cache).
func (c *Cache) Get(id string) (*campaign.Result, bool) { //sweepvet:allow(deadapi) cmd/sweepbench replays cache reads through it
	return c.get(id, false)
}

// Contains reports whether id would serve as a hit — from memory or the
// backing store — without decoding, copying or promoting anything. It
// exists for cheap warmth checks (conditional requests: a warm id IS
// its ETag); like the store's Has it can over-report a record that
// turns out corrupt on the actual read, never under-report.
func (c *Cache) Contains(id string) bool {
	c.mu.Lock()
	_, ok := c.m[id]
	st := c.store
	c.mu.Unlock()
	if ok {
		return true
	}
	return st != nil && st.Has(id)
}

// get looks id up in memory, then in the backing store. With raw set,
// summary-only entries miss and a hit is a private Clone; otherwise a
// hit is the cache's own pointer.
func (c *Cache) get(id string, raw bool) (*campaign.Result, bool) {
	c.mu.Lock()
	el, ok := c.m[id]
	var res *campaign.Result
	if ok {
		res = el.Value.(*entry).res
		if raw && res.SummaryOnly {
			// A compact entry cannot serve a raw-samples caller; fall
			// through to the store, which may hold a full record.
			ok = false
		} else {
			c.lru.MoveToFront(el)
		}
	}
	st := c.store
	c.mu.Unlock()
	if !ok {
		if st == nil {
			return nil, false
		}
		if res, ok = st.Get(id); !ok {
			return nil, false
		}
		if raw && res.SummaryOnly {
			// Don't insert: memoizing the compact record would evict
			// nothing useful and the caller is about to re-simulate a
			// full result that will land in this slot anyway.
			return nil, false
		}
		c.insert(id, res) // restored from disk: the cache owns it
	}
	if raw {
		// Cache-owned results are never mutated in place, so cloning
		// outside the lock is safe and keeps a large copy from
		// serializing every other cache access.
		return res.Clone(), true
	}
	return res, true
}

// put caches a freshly simulated result and, when a store is attached,
// persists it. The cache keeps its own copy, never fresh itself. When
// a store is attached and no raw caller asked, the copy is a
// SummaryClone: the cache keeps the summaries and reports shared
// readers need, and the store keeps the raw samples raw callers read.
// Otherwise it is a full Clone, since a raw caller takes fresh and may
// mutate it. put returns the copy a caller of the given kind may hold:
// the cached one for shared callers, the fresh one (already private)
// for raw callers.
func (c *Cache) put(id string, fresh *campaign.Result, raw bool) *campaign.Result {
	c.mu.Lock()
	st := c.store
	c.mu.Unlock()
	var cached *campaign.Result
	if st != nil && !raw {
		cached = fresh.SummaryClone()
	} else {
		cached = fresh.Clone()
	}
	c.insert(id, cached)
	if st != nil {
		if err := st.Put(id, fresh); err != nil {
			c.storeErrs.Add(1)
		}
	}
	if raw {
		return fresh
	}
	return cached
}

// insert adds an entry the cache owns outright (put's copy of a fresh
// result, or a result just restored from disk) and applies the LRU
// bound.
func (c *Cache) insert(id string, res *campaign.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[id]; ok {
		el.Value.(*entry).res = res
		c.lru.MoveToFront(el)
		return
	}
	c.m[id] = c.lru.PushFront(&entry{id: id, res: res})
	c.evictLocked()
}

func (c *Cache) evictLocked() {
	if c.limit <= 0 {
		return
	}
	for c.lru.Len() > c.limit {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.m, el.Value.(*entry).id)
	}
}

// Rendered returns scenario id's record bytes in enc, calling render
// to build them when the entry has none yet and keeping the result in
// the entry until it is evicted. The bytes are the cache's own, shared
// with every caller, and must not be written through; their capacity
// equals their length, so an append copies. render runs without the
// cache lock, so concurrent first calls may each render; the first to
// finish fills the slot and every caller gets identical bytes. When id
// has no in-memory entry (evicted since it was resolved), the rendered
// bytes are returned without being kept.
func (c *Cache) Rendered(id string, enc Encoding, render func() []byte) []byte {
	c.mu.Lock()
	var b []byte
	if el, ok := c.m[id]; ok {
		b = el.Value.(*entry).rendered[enc]
	}
	c.mu.Unlock()
	if b != nil {
		return b
	}
	b = render()
	b = b[:len(b):len(b)]
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[id]; ok {
		e := el.Value.(*entry)
		if e.rendered[enc] == nil {
			e.rendered[enc] = b
		}
		return e.rendered[enc]
	}
	return b
}

// runCampaign indirects campaign.Run so tests can count executions.
var runCampaign = campaign.Run

// SetRunner replaces the function a cache miss uses to simulate the
// scenario (campaign.Run when nil). The runner receives the resolving
// caller's Want.Stages, which may be nil. Serving layers wrap it to
// bound simulation concurrency and shed load under pressure: an error
// the runner returns propagates to every caller waiting on that
// flight, and nothing is cached. Set it before the cache sees traffic;
// it is not synchronized against in-flight Resolve calls.
func (c *Cache) SetRunner(run func(campaign.Config, obs.StageObserver) (*campaign.Result, error)) {
	c.runner = run
}

// Resolve returns the result for sc, running the campaign on a miss;
// cached is true when the result was served — from memory, disk, or
// another caller's completed flight — without this call simulating.
// sc.ID must be the config's scenario ID, as ScenarioOf mints it: the
// cache keys on it without hashing again. Concurrent misses on the
// same key are de-duplicated: exactly one caller simulates, the rest
// wait and share the outcome. The result is shared and read-only
// unless want.Raw asks for a private copy (see Cache and Want).
func (c *Cache) Resolve(sc Scenario, want Want) (res *campaign.Result, cached bool, err error) {
	id := sc.ID
	so := want.Stages
	for {
		if res, ok := c.getObserved(id, want.Raw, so); ok {
			return res, true, nil
		}
		c.mu.Lock()
		if f, ok := c.inflight[id]; ok {
			// Someone is already simulating this scenario: wait, then
			// loop back to the read — the cache is warm on their
			// success. (In the pathological case where the entry was
			// already evicted again, the loop simply elects a new
			// leader.)
			c.mu.Unlock()
			waitStart := stageStart(so)
			<-f.done
			stageDone(so, obs.StageSingleflightWait, waitStart)
			if f.err != nil {
				return nil, false, f.err
			}
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[id] = f
		c.mu.Unlock()
		// Deferred so a panic while simulating still releases the key:
		// waiters wake (f.err nil → they loop and elect a new leader)
		// instead of blocking on a permanently wedged flight. The leader
		// returns below without iterating, so this registers once.
		defer func() {
			c.mu.Lock()
			delete(c.inflight, id)
			c.mu.Unlock()
			close(f.done)
		}()

		// Leader: re-check the cache (a racing insert may have landed
		// between our miss and claiming the flight), then simulate.
		res, ok := c.getObserved(id, want.Raw, so)
		if !ok {
			if c.runner != nil {
				res, err = c.runner(sc.Config, so)
			} else {
				res, err = runCampaign(sc.Config)
			}
			if err == nil {
				res = c.put(id, res, want.Raw)
			}
			f.err = err
		}
		return res, ok, err
	}
}

// getObserved is get with the read time attributed to the caller's
// stage observer (memory lookup plus any disk ReadAt + decode).
func (c *Cache) getObserved(id string, raw bool, so obs.StageObserver) (*campaign.Result, bool) {
	start := stageStart(so)
	res, ok := c.get(id, raw)
	stageDone(so, obs.StageStoreRead, start)
	return res, ok
}

// stageStart and stageDone bracket one observed stage; both collapse
// to nothing for unobserved callers, so an unobserved Resolve never
// touches the clock.
func stageStart(so obs.StageObserver) time.Time {
	if so == nil {
		return time.Time{}
	}
	return time.Now() //sweepvet:allow(timenow) stage timer: feeds metrics/traces only, never results
}

func stageDone(so obs.StageObserver, st obs.Stage, start time.Time) {
	if so == nil {
		return
	}
	so.ObserveStage(st, time.Since(start)) //sweepvet:allow(timenow) stage timer: feeds metrics/traces only, never results
}
