package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/sweep/serve"
	"repro/internal/sweep/store"
)

// DefaultPullInterval is the manifest poll period when
// ReplicatorOptions leave it zero.
const DefaultPullInterval = 2 * time.Second

// cursorFile persists the last fully applied writer generation inside
// the replica's store directory (the store ignores unknown top-level
// files). Losing or tearing it is safe: a zero cursor just forces one
// full manifest diff, which the size comparison makes cheap.
const cursorFile = "follow-cursor.json"

// ReplicatorOptions configures a Replicator.
type ReplicatorOptions struct {
	// Writer is the base URL of the writer sweepd whose segment feed
	// this replica follows.
	Writer string
	// Store is the replica's own store — the same instance its serve
	// layer reads, so ingested segments become visible to Gets without
	// a restart.
	Store *store.Store
	// Interval is the poll period (DefaultPullInterval when zero).
	Interval time.Duration
	// Client performs feed requests (a default client when nil).
	Client *http.Client
}

// ReplicationStats is the pull loop's snapshot, embedded in the
// replica's /statsz as "replication".
type ReplicationStats struct {
	Writer string `json:"writer"`
	// Cursor is the last writer generation fully applied; WriterGen the
	// last one observed. SegmentsBehind counts manifest entries not yet
	// byte-identical locally after the most recent sync attempt — the
	// replication lag, in segments.
	Cursor         int64 `json:"cursor"`
	WriterGen      int64 `json:"writer_generation"`
	SegmentsBehind int   `json:"segments_behind"`

	Syncs           int64  `json:"syncs"`
	SyncErrors      int64  `json:"sync_errors"`
	SegmentsShipped int64  `json:"segments_shipped"`
	BytesShipped    int64  `json:"bytes_shipped"`
	SegmentsDropped int64  `json:"segments_dropped"`
	LastError       string `json:"last_error,omitempty"`
}

// Replicator keeps one replica store converging on a writer's bytes by
// shipping whole segments: poll the manifest (a generation cursor makes
// the idle poll one int compare), fetch every segment whose size
// differs locally, ingest it atomically, drop segments the writer
// compacted away. Append-only segments make size a sufficient change
// detector, and content-hash IDs make every shipped record correct even
// mid-sync — a lagging replica serves misses, never wrong bytes.
//
// Segments travel as TLV only. Roll a fleet out writer first: an
// upgraded writer lists and ships every segment as "tlv", which older
// followers fetch unchanged, while an upgraded follower refuses (and
// reports as a sync error) any segment an older writer lists without
// that format — a v2 JSONL segment that writer has not yet transcoded.
type Replicator struct {
	writer   string
	st       *store.Store
	client   *http.Client
	interval time.Duration
	path     string // cursor file

	mu    sync.Mutex
	stats ReplicationStats

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewReplicator builds a replicator and loads any persisted cursor. It
// does not start polling — call Start (or SyncOnce for a single cycle).
func NewReplicator(opts ReplicatorOptions) (*Replicator, error) {
	if opts.Writer == "" {
		return nil, fmt.Errorf("cluster: replicator needs a writer URL")
	}
	if opts.Store == nil {
		return nil, fmt.Errorf("cluster: replicator needs a store")
	}
	r := &Replicator{
		writer:   opts.Writer,
		st:       opts.Store,
		client:   opts.Client,
		interval: opts.Interval,
		path:     filepath.Join(opts.Store.Dir(), cursorFile),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if r.client == nil {
		r.client = &http.Client{}
	}
	if r.interval <= 0 {
		r.interval = DefaultPullInterval
	}
	r.stats.Writer = opts.Writer
	r.stats.Cursor = r.loadCursor()
	return r, nil
}

// loadCursor reads the persisted cursor; any unreadable, torn or
// foreign-writer file degrades to zero (full resync), never to an
// error.
func (r *Replicator) loadCursor() int64 {
	data, err := os.ReadFile(r.path)
	if err != nil {
		return 0
	}
	var c struct {
		Writer string `json:"writer"`
		Cursor int64  `json:"cursor"`
	}
	if json.Unmarshal(data, &c) != nil || c.Writer != r.writer {
		return 0
	}
	return c.Cursor
}

// saveCursor persists the cursor with temp+rename so a crash can tear
// the update, never the file.
func (r *Replicator) saveCursor(cur int64) {
	data, _ := json.Marshal(struct {
		Writer string `json:"writer"`
		Cursor int64  `json:"cursor"`
	}{r.writer, cur})
	tmp, err := os.CreateTemp(filepath.Dir(r.path), "cursor-*.tmp")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if os.Rename(name, r.path) != nil {
		os.Remove(name)
	}
}

// Start launches the pull loop; Stop ends it. The first sync runs
// immediately, not one interval in.
func (r *Replicator) Start() {
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			r.SyncOnce(context.Background())
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
}

// Stop ends the pull loop and waits for the in-flight cycle.
func (r *Replicator) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

// Stats returns the current snapshot. The replica's serve layer
// installs `func() any { s := rep.Stats(); return s }` as its
// replication stats hook.
func (r *Replicator) Stats() ReplicationStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

func (r *Replicator) fail(behind int, err error) error {
	r.mu.Lock()
	r.stats.SyncErrors++
	r.stats.SegmentsBehind = behind
	r.stats.LastError = err.Error()
	r.mu.Unlock()
	return err
}

// SyncOnce runs one pull cycle: manifest, diff, ship, drop, advance
// cursor. Partial failure leaves the cursor untouched, so the next
// cycle re-diffs — every step is idempotent (ingest replaces whole
// files, drop tolerates absence).
func (r *Replicator) SyncOnce(ctx context.Context) error {
	r.mu.Lock()
	cursor := r.stats.Cursor
	r.mu.Unlock()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/segments?cursor=%d", r.writer, cursor), nil)
	if err != nil {
		return r.fail(0, err)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return r.fail(0, fmt.Errorf("cluster: poll manifest: %w", err))
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		r.mu.Lock()
		r.stats.WriterGen = cursor
		r.stats.SegmentsBehind = 0
		r.stats.Syncs++
		r.mu.Unlock()
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return r.fail(0, fmt.Errorf("cluster: manifest status %d", resp.StatusCode))
	}
	var man serve.SegmentManifest
	if err := json.NewDecoder(resp.Body).Decode(&man); err != nil {
		return r.fail(0, fmt.Errorf("cluster: decode manifest: %w", err))
	}

	type segRef struct {
		shard string
		seg   int
	}
	_, localSegs := r.st.Manifest()
	local := make(map[store.SegmentInfo]bool, len(localSegs))
	for _, si := range localSegs {
		local[si] = true
	}
	remote := make(map[segRef]bool, len(man.Segments))
	var toShip []store.SegmentInfo
	for _, si := range man.Segments {
		remote[segRef{si.Shard, si.Seg}] = true
		if !local[si] {
			toShip = append(toShip, si)
		}
	}
	r.mu.Lock()
	r.stats.WriterGen = man.Generation
	r.stats.SegmentsBehind = len(toShip)
	r.mu.Unlock()

	applied := 0
	for _, si := range toShip {
		if err := r.shipSegment(ctx, si); err != nil {
			return r.fail(len(toShip)-applied, err)
		}
		applied++
		r.mu.Lock()
		r.stats.SegmentsShipped++
		r.stats.BytesShipped += si.Size
		r.stats.SegmentsBehind = len(toShip) - applied
		r.mu.Unlock()
	}
	// Segments the writer no longer lists were compacted away; their
	// surviving records arrived above in the compacted segment.
	for _, si := range localSegs {
		if remote[segRef{si.Shard, si.Seg}] {
			continue
		}
		if err := r.st.DropSegment(si.Shard, si.Seg); err != nil {
			return r.fail(0, err)
		}
		r.mu.Lock()
		r.stats.SegmentsDropped++
		r.mu.Unlock()
	}

	r.mu.Lock()
	r.stats.Cursor = man.Generation
	r.stats.Syncs++
	r.stats.SegmentsBehind = 0
	r.stats.LastError = ""
	r.mu.Unlock()
	r.saveCursor(man.Generation)
	return nil
}

// shipSegment fetches one segment and installs it atomically. The
// fetched body must cover at least the manifest's committed size — a
// shorter read is a partial download and is rejected rather than
// installed; a longer one just means the writer appended since the
// manifest, and those extra committed lines are welcome.
func (r *Replicator) shipSegment(ctx context.Context, si store.SegmentInfo) error {
	if err := store.CheckSegmentFormat(si.Format); err != nil {
		return err
	}
	url := fmt.Sprintf("%s/v1/segments/file?shard=%s&seg=%d&format=%s", r.writer, si.Shard, si.Seg, si.Format)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: fetch %s/%d: %w", si.Shard, si.Seg, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		// Compaction won the race between manifest and fetch; the next
		// cycle's manifest resolves it. Not an error — skip.
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: fetch %s/%d: status %d", si.Shard, si.Seg, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("cluster: fetch %s/%d: %w", si.Shard, si.Seg, err)
	}
	if int64(len(data)) < si.Size {
		return fmt.Errorf("cluster: fetch %s/%d: partial download (%d of %d bytes)",
			si.Shard, si.Seg, len(data), si.Size)
	}
	return r.st.IngestSegment(si.Shard, si.Seg, data)
}
