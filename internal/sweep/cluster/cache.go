package cluster

import (
	"container/list"
	"sync"

	"repro/internal/sweep"
)

// responseCache is the proxy's ETag-keyed response cache: scenario ID →
// the exact bytes a backend served for it, one slot per encoding, the
// way sweepd's cache entries keep them. Records are immutable once
// acknowledged (the ID is a content hash of the config, and campaigns
// are deterministic), so an entry never needs invalidation — only LRU
// bounding. It deliberately caches bytes, not decoded records: a warm
// hit is a map lookup plus one Write, and the bytes are guaranteed
// identical to what the backend would serve.
type responseCache struct {
	mu    sync.Mutex
	m     map[string]*list.Element
	lru   *list.List // front = most recently used
	limit int
}

type cacheEntry struct {
	id  string
	rec [sweep.EncodingTLV + 1][]byte // indexed by sweep.Encoding
}

func newResponseCache(limit int) *responseCache {
	return &responseCache{
		m:     make(map[string]*list.Element),
		lru:   list.New(),
		limit: limit,
	}
}

// get returns id's cached record in enc. Callers must not mutate the
// returned slice (slots are written once and only ever evicted, so
// sharing the backing array is safe).
func (c *responseCache) get(id string, enc sweep.Encoding) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[id]
	if !ok {
		return nil, false
	}
	rec := el.Value.(*cacheEntry).rec[enc]
	if rec == nil {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return rec, true
}

// contains reports whether any encoding of id is cached: the record
// exists cluster-wide.
func (c *responseCache) contains(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[id]
	return ok
}

func (c *responseCache) put(id string, enc sweep.Encoding, rec []byte) {
	rec = rec[:len(rec):len(rec)]
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[id]; ok {
		// Same ID ⇒ same bytes by construction: fill the slot if it is
		// empty and refresh recency.
		e := el.Value.(*cacheEntry)
		if e.rec[enc] == nil {
			e.rec[enc] = rec
		}
		c.lru.MoveToFront(el)
		return
	}
	e := &cacheEntry{id: id}
	e.rec[enc] = rec
	c.m[id] = c.lru.PushFront(e)
	for c.limit > 0 && c.lru.Len() > c.limit {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.m, el.Value.(*cacheEntry).id)
	}
}

func (c *responseCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
