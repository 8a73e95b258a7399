// Package store persists completed sweep scenarios to disk, keyed by
// scenario content hash, so sweeps resume warm across process restarts.
// It layers under sweep.Cache (read-through on miss, write-through on
// insert) and is deliberately boring about durability and aggressively
// tolerant about corruption.
//
// # Layout
//
// Records pack into append-only segments instead of one file per
// scenario — at millions of records a flat directory collapses under
// filesystem pressure, while a few thousand multi-megabyte segments do
// not:
//
//	<dir>/
//	  segments/<shard>/seg-NNNN.tlv     append-only pack segments (v3 TLV)
//	  index.jsonl                       sidecar: id -> byte location
//	  LOCK                              held by the one open Store
//
// The shard is the first two hex characters of the scenario hash (256-way
// fan-out keeps per-directory entry counts flat; ids that do not start
// with two hex characters shard through a hash of the id instead). Each
// shard appends to its highest-numbered segment and rotates to a fresh
// one once the tail exceeds Options.SegmentBytes.
//
// A record is one framed TLV envelope (record format v3, see
// internal/sweep/tlv): the versioned envelope around a
// campaign.ResultState, and the only encoding the store reads or
// writes. Directories written before v3 hold v2 segments of one JSON
// line per record; Open transcodes each into the TLV segment of the
// same number before anything else touches the directory (legacy.go).
//
// The sidecar index maps ids to (shard, segment, offset, length), so
// opens are one sequential read and Gets are one ReadAt — no record is
// decoded until asked for. The segment append is the commit point and
// the index line follows it, so the index can only under-state a record
// whose Put never returned; it never claims a record the segments don't
// hold. A lost, empty, or unreadable index falls back to a full segment
// scan (in sorted shard/segment order, so rebuilds are deterministic
// across platforms) and is written back for the next open.
//
// Crash tolerance: a Put interrupted mid-append leaves a partial final
// frame in a tail segment. Partial records are never acknowledged (Put
// writes the whole record in one call and returns after it succeeds),
// and never confuse later appends: frames are self-delimiting, and
// scans resynchronize on the next frame magic whose CRC checks out, so
// a torn frame needs no repair. Any unreadable, unparsable,
// wrong-version or mismatched record reads as a cache miss — corruption
// re-simulates one scenario, it never fails a sweep.
//
// Superseded records (an id re-Put after corruption healing) and crash
// garbage accumulate as dead bytes until Compact, which rewrites live
// records into fresh segments and drops everything else. Compaction is
// explicit (cmd/sweep -compact-store); nothing runs in the background.
//
// Stores created by the v1 layout (one records/<id>.json per scenario)
// migrate transparently: Open folds every readable v1 record into
// segments and removes the records/ directory, so existing -cache-dir
// directories keep working with no tooling.
//
// One writer per directory: Open takes an exclusive advisory lock on
// <dir>/LOCK (flock, on unix) and Close releases it, so a second Open
// of a directory — from another process or this one — fails fast
// instead of interleaving appends with the first, or compacting away
// segment files the first instance's index still points at. A Store is
// safe for any number of goroutines, and Compact is safe under its live
// traffic: it locks shard-at-a-time, so concurrent Put/Get stall for at
// most one shard's rewrite instead of the whole pass.
//
// Records capture campaign.ResultState, which serializes every summary
// losslessly, so a result served from disk is indistinguishable — to
// the byte, in JSONL exports and aggregate tables — from the freshly
// simulated one. In compact mode records hold only per-cell moments
// (stats snapshots' backing state), not raw samples, shrinking the
// on-disk footprint of large grids by orders of magnitude.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/sweep/tlv"
)

// FormatVersion is the version the v1 and v2 JSON record envelopes
// carry (record.V). Open upgrades only records of this version; lines
// or files carrying any other are dropped as misses, re-simulated and
// rewritten. The TLV envelope versions itself (internal/sweep/tlv).
const FormatVersion = 1

// indexVersion versions the sidecar entries, which carry byte locations
// the v1 index lacked. v1 index lines are skipped on load; when nothing
// loads, the segment scan rebuilds the index from the ground truth.
const indexVersion = 2

// DefaultSegmentBytes is the rotation threshold: a shard's tail segment
// that grows past this many bytes is retired and the next append opens
// a fresh one. At the default, a million compact records pack into a
// few hundred segments per shard-free directory walk.
const DefaultSegmentBytes = 4 << 20

const (
	segmentsDir  = "segments"
	indexName    = "index.jsonl"
	lockName     = "LOCK"
	segPrefix    = "seg-"
	segSuffixTLV = ".tlv"

	// formatTLV names the segment encoding in index lines, manifests and
	// wire parameters. It is the only one, but stays on the wire and on
	// disk so peers and indexes from before the v2 upgrade read it
	// unchanged.
	formatTLV = "tlv"

	// staleTempAge is how old a put-*.tmp must be before Open treats it
	// as a crash orphan rather than another process's in-flight write.
	staleTempAge = time.Hour
)

// errClosed is returned by writes issued after Close.
var errClosed = errors.New("store is closed")

// Options configures a store.
type Options struct {
	// Compact stores summary-only records: per-cell moments instead of
	// every raw sample. Full and compact records coexist in one
	// directory; reading either works regardless of the current mode.
	Compact bool
	// SegmentBytes overrides the segment rotation threshold
	// (DefaultSegmentBytes when zero). Tests use tiny values to force
	// rotation; production has no reason to change it.
	SegmentBytes int64
}

// indexEntry is one line of index.jsonl: where an id's newest record
// lives. Later lines for the same id supersede earlier ones, so the
// index doubles as an append log. F is always "tlv": a line without it
// points into a v2 JSONL segment and is skipped on load.
type indexEntry struct {
	V     int    `json:"v"`
	ID    string `json:"id"`
	Shard string `json:"shard"`
	Seg   int    `json:"seg"`
	Off   int64  `json:"off"`
	Len   int64  `json:"len"`
	F     string `json:"f,omitempty"`
}

// location is where an id's live record, one whole TLV frame, starts
// and how long it is.
type location struct {
	shard string
	seg   int
	off   int64
	n     int64
}

// shardState tracks one shard's append position.
type shardState struct {
	tailSeg int      // segment appends go to; -1 when the shard is empty
	tail    *os.File // lazily opened append handle for the tail segment
}

// Store is a disk-backed, content-addressed scenario result store over
// sharded append-only segments. All methods are safe for concurrent
// use.
type Store struct {
	dir      string
	compact  bool
	segBytes int64
	lock     *os.File // holds <dir>/LOCK; nil where locking is unsupported
	// opObs, when set, receives per-operation wall timings (get, put,
	// per-shard compaction passes) for the serving layer's metrics.
	// Set via SetOpObserver before the store sees traffic; timings feed
	// observability only, never results.
	opObs func(op Op, shard string, d time.Duration)

	mu     sync.Mutex
	loc    map[string]location    // id -> live record location
	shards map[string]*shardState // shard -> append state
	index  *os.File               // append handle for index.jsonl
	closed bool                   // set by Close; later writes fail
	// gen is the replication cursor: it moves on every mutation, and
	// appends move it by the bytes they wrote so it stays comparable
	// across restarts (Open re-initializes it to the store's total
	// segment bytes). See replica.go.
	gen int64

	// compactMu serializes Compact passes. Compact releases mu between
	// shards so live Put/Get traffic interleaves with a long pass, but
	// two concurrent passes over one directory would delete each other's
	// fresh segments.
	compactMu sync.Mutex
}

// Open creates (or reopens) a store rooted at dir. Existing records are
// discovered from the sidecar index (one sequential read) or, when that
// is missing or empty, a full segment scan; v2 JSONL segments are
// transcoded to TLV first, and a v1 one-file-per-record layout found
// under records/ is folded into segments. Nothing is decoded until Get,
// so opening a million-record store stays cheap.
// Open fails while another Store holds the directory's lock.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, segmentsDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	segBytes := opt.SegmentBytes
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	s := &Store{
		dir:      dir,
		compact:  opt.Compact,
		segBytes: segBytes,
		lock:     lock,
		loc:      make(map[string]location),
		shards:   make(map[string]*shardState),
	}
	if err := s.load(); err != nil {
		// Release the lock and any tail handles migration opened.
		s.Close() //sweepvet:allow(close) abandoning a store that failed to open; the open error is the one to report
		return nil, err
	}
	return s, nil
}

// load discovers the directory's records, upgrading v2 segments and
// migrating a v1 layout, and opens the index append handle.
func (s *Store) load() error {
	dir := s.dir
	// Sweep temp files orphaned by a crash mid-migration or
	// mid-compaction. Only temps older than a generous threshold are
	// removed: another process sharing this directory may be mid-write
	// right now, and unlinking its temp would fail its rename.
	if stale, err := filepath.Glob(filepath.Join(dir, "put-*.tmp")); err == nil {
		for _, f := range stale {
			//sweepvet:allow(timenow) stale-temp age check at open; never reaches record bytes
			if fi, err := os.Stat(f); err == nil && time.Since(fi.ModTime()) > staleTempAge {
				os.Remove(f)
			}
		}
	}

	stale, err := s.upgradeV2()
	if err != nil {
		return err
	}
	if err := s.scanShards(); err != nil {
		return err
	}
	// Transcoded segments invalidate every index line that pointed into
	// them; so does an index still naming v2 lines, left by a crash
	// after an upgrade's unlink but before its write-back. Either way
	// the segments, not the index, are the truth.
	if !stale {
		stale = s.loadIndex()
	}
	rebuilt := false
	if stale || len(s.loc) == 0 && len(s.shards) > 0 {
		clear(s.loc)
		if err := s.rebuild(); err != nil {
			return err
		}
		rebuilt = stale || len(s.loc) > 0
	}
	migrated, err := s.migrateV1()
	if err != nil {
		return err
	}
	if rebuilt || migrated {
		// Best-effort: if the write-back fails the next Open just
		// rescans (or re-migrates the leftovers) again.
		s.rewriteIndexLocked()
	}
	if s.index == nil {
		idx, err := os.OpenFile(filepath.Join(dir, indexName),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: open index: %w", err)
		}
		s.index = idx
	}
	// Seed the generation cursor from the bytes on disk, so a reopened
	// writer whose segments are unchanged reports the same cursor a
	// replica last synced at (see replica.go).
	for _, si := range s.manifestLocked() {
		s.gen += si.Size
	}
	return nil
}

// bumpGenLocked advances the replication cursor by delta bytes (at
// least one, so every mutation is observable).
func (s *Store) bumpGenLocked(delta int64) {
	if delta <= 0 {
		delta = 1
	}
	s.gen += delta
}

// shardOf maps an id to its shard directory: the id's own first two hex
// characters when it is a content hash (the normal case), otherwise two
// hex characters of the id's hash so arbitrary ids still fan out
// uniformly.
func shardOf(id string) string {
	if len(id) >= 2 && isHexLower(id[0]) && isHexLower(id[1]) {
		return id[:2]
	}
	sum := sha256.Sum256([]byte(id))
	return hex.EncodeToString(sum[:1])
}

func isHexLower(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
}

func segName(n int) string {
	return fmt.Sprintf("%s%04d%s", segPrefix, n, segSuffixTLV)
}

// parseSegName extracts the segment number, rejecting anything that is
// not a segment file.
func parseSegName(name string) (n int, ok bool) {
	num, ok := strings.CutPrefix(name, segPrefix)
	if !ok {
		return 0, false
	}
	if num, ok = strings.CutSuffix(num, segSuffixTLV); !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func (s *Store) shardDir(shard string) string {
	return filepath.Join(s.dir, segmentsDir, shard)
}

func (s *Store) segPath(shard string, seg int) string {
	return filepath.Join(s.shardDir(shard), segName(seg))
}

// scanShards discovers the shard directories and each one's tail
// segment. A tail torn by a crash needs no repair: frames are
// self-delimiting and scans resync past a torn one.
func (s *Store) scanShards() error {
	root := filepath.Join(s.dir, segmentsDir)
	shards, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", root, err)
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		segs, err := os.ReadDir(filepath.Join(root, sh.Name()))
		if err != nil {
			continue
		}
		tail := -1
		for _, e := range segs {
			if n, ok := parseSegName(e.Name()); ok && !e.IsDir() {
				tail = max(tail, n)
			}
		}
		if tail >= 0 {
			s.shards[sh.Name()] = &shardState{tailSeg: tail}
		}
	}
	return nil
}

// loadIndex reads the sidecar. Corrupt, v1, or implausible lines are
// skipped; later lines supersede earlier ones, matching append order.
// It reports whether it skipped a line naming a v2 JSONL segment.
func (s *Store) loadIndex() (v2 bool) {
	data, err := os.ReadFile(filepath.Join(s.dir, indexName))
	if err != nil {
		return false
	}
	for _, line := range strings.Split(string(data), "\n") {
		var e indexEntry
		if json.Unmarshal([]byte(line), &e) != nil || e.V != indexVersion {
			continue
		}
		if e.ID == "" || e.Shard == "" || e.Seg < 0 || e.Off < 0 || e.Len <= 0 {
			continue
		}
		if e.F != formatTLV {
			v2 = v2 || e.F == ""
			continue
		}
		s.loc[e.ID] = location{shard: e.Shard, seg: e.Seg, off: e.Off, n: e.Len}
	}
	return v2
}

// rebuild reconstructs the location map from the segments themselves —
// the ground truth — when the sidecar is lost or useless. Shards and
// segments are walked in explicitly sorted order so two rebuilds of one
// directory produce identical indexes on every platform; within a
// segment, append order does the same. The last occurrence of an id
// wins, mirroring append semantics.
func (s *Store) rebuild() error {
	shards := make([]string, 0, len(s.shards))
	for sh := range s.shards {
		shards = append(shards, sh)
	}
	sort.Strings(shards)
	for _, sh := range shards {
		segs, err := os.ReadDir(s.shardDir(sh))
		if err != nil {
			continue
		}
		nums := make([]int, 0, len(segs))
		for _, e := range segs {
			if n, ok := parseSegName(e.Name()); ok && !e.IsDir() {
				nums = append(nums, n)
			}
		}
		sort.Ints(nums)
		for _, n := range nums {
			if err := s.scanSegment(sh, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanSegment folds one segment's parseable records into the location
// map. Garbage (crash debris, bit rot) is skipped — its bytes stay dead
// until compaction.
func (s *Store) scanSegment(shard string, seg int) error {
	data, err := os.ReadFile(s.segPath(shard, seg))
	if err != nil {
		return fmt.Errorf("store: scan segment: %w", err)
	}
	s.scanSegmentBytes(shard, seg, data, nil)
	return nil
}

// scanSegmentBytes folds one segment's valid records into the location
// map, resynchronizing past torn or corrupt frames. Each accepted id is
// also passed to visit when non-nil (replica ingestion appends index
// lines there).
func (s *Store) scanSegmentBytes(shard string, seg int, data []byte, visit func(id string, l location)) {
	off := 0
	for {
		payload, start, frameLen, ok := tlv.NextFrame(data, off)
		if !ok {
			return
		}
		if id, ok := parseRecordFrame(payload, shard); ok {
			l := location{shard: shard, seg: seg, off: int64(start), n: int64(frameLen)}
			s.loc[id] = l
			if visit != nil {
				visit(id, l)
			}
		}
		off = start + frameLen
	}
}

// parseRecordFrame validates one frame payload as a live record of the
// given shard, returning its id. The frame's CRC already checked out
// (NextFrame only surfaces valid frames), so this guards the semantic
// layer: envelope version, id shape, shard match. Garbage (foreign
// versions, misfiled ids) reports false and stays dead bytes.
func parseRecordFrame(payload []byte, shard string) (string, bool) {
	id, _, err := tlv.DecodeEnvelopePayload(payload)
	if err != nil || validID(id) != nil || shardOf(id) != shard {
		return "", false
	}
	return id, true
}

// rewriteIndexLocked atomically replaces the sidecar with one sorted
// line per live record (temp + rename), then reopens the append handle
// on the new file. Sorted output makes two rewrites of the same state
// byte-identical.
func (s *Store) rewriteIndexLocked() error {
	ids := make([]string, 0, len(s.loc))
	for id := range s.loc {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var buf strings.Builder
	for _, id := range ids {
		l := s.loc[id]
		line, err := json.Marshal(indexEntry{
			V: indexVersion, ID: id, Shard: l.shard, Seg: l.seg, Off: l.off, Len: l.n, F: formatTLV,
		})
		if err != nil {
			// An unmarshalable entry would silently vanish from the
			// rewritten sidecar and resurface only on a full rescan;
			// surface it instead.
			return fmt.Errorf("store: rewrite index: encode entry %s: %w", id, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	tmp, err := os.CreateTemp(s.dir, "put-index-*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.WriteString(buf.String())
	// Sync before the rename makes this file the index: a power cut
	// between a rename that landed and write-back that did not would
	// leave an empty index forcing a full segment rescan at next open.
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: rewrite index: %v / %v / %v", werr, serr, cerr)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, indexName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: rewrite index: %w", err)
	}
	if s.index != nil {
		// The old handle points at the inode the rename just replaced;
		// nothing that still matters can be lost through it.
		s.index.Close() //sweepvet:allow(close) handle names the replaced inode
		s.index = nil
	}
	idx, err := os.OpenFile(filepath.Join(s.dir, indexName),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen index: %w", err)
	}
	s.index = idx
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of records believed present. It can
// over-count: index entries whose record is unreadable or from another
// format version stay counted until a Get touches them and forgets the
// slot.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.loc)
}

// CompactMode reports whether new records are written summary-only.
func (s *Store) CompactMode() bool { return s.compact }

// validID refuses ids that could escape the segments directory or
// collide with segment bookkeeping.
func validID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\.") {
		return fmt.Errorf("store: invalid scenario id %q", id)
	}
	return nil
}

// readAtLocation reads a record's exact byte range out of its segment.
// The range is validated against the file's real size before anything
// is allocated, so a corrupt index line advertising an absurd length
// degrades to a miss like every other corruption — it never drives an
// allocation the process can't survive.
func readAtLocation(path string, l location) ([]byte, bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || l.off+l.n > fi.Size() {
		return nil, false
	}
	buf := make([]byte, l.n)
	if _, err := f.ReadAt(buf, l.off); err != nil {
		return nil, false
	}
	return buf, true
}

// Op identifies one timed store operation reported to a SetOpObserver
// callback.
type Op uint8

const (
	// OpGet is one Get call: index lookup, segment ReadAt, decode,
	// restore.
	OpGet Op = iota
	// OpPut is one Put call: encode, segment append, index append.
	OpPut
	// OpCompactShard is one shard's rewrite inside a Compact pass.
	OpCompactShard
)

// String returns the metric-label name for the operation.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpCompactShard:
		return "compact_shard"
	}
	return "unknown"
}

// SetOpObserver installs a callback receiving the wall duration of
// every Get, Put and per-shard compaction pass, with the shard it
// touched. The serving layer feeds these into its store-op latency
// histograms. Set before the store sees traffic (like the cache's
// SetRunner, it is not synchronized against in-flight calls); the
// callback runs outside the store mutex and must be goroutine-safe.
func (s *Store) SetOpObserver(fn func(op Op, shard string, d time.Duration)) {
	s.opObs = fn
}

// opStart and opDone bracket one observed operation; both collapse to
// nothing when no observer is installed, keeping the unobserved path
// off the clock.
func (s *Store) opStart() time.Time {
	if s.opObs == nil {
		return time.Time{}
	}
	return time.Now() //sweepvet:allow(timenow) op timer: feeds metrics only, never results
}

func (s *Store) opDone(op Op, shard string, start time.Time) {
	if s.opObs == nil {
		return
	}
	s.opObs(op, shard, time.Since(start)) //sweepvet:allow(timenow) op timer: feeds metrics only, never results
}

// Get loads and restores the record for a scenario id: one ReadAt at
// the indexed location. Every failure mode — absent, unreadable,
// corrupt, wrong version, id mismatch, unrestorable — is a miss; the
// bad slot is forgotten so the record is rewritten after the scenario
// re-runs.
func (s *Store) Get(id string) (*campaign.Result, bool) {
	start := s.opStart()
	res, ok := s.getLocated(id)
	s.opDone(OpGet, shardOf(id), start)
	return res, ok
}

func (s *Store) getLocated(id string) (*campaign.Result, bool) {
	s.mu.Lock()
	l, ok := s.loc[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	buf, ok := readAtLocation(s.segPath(l.shard, l.seg), l)
	if !ok {
		s.forgetIf(id, l)
		return nil, false
	}
	st, ok := decodeRecord(buf, id)
	if !ok {
		s.forgetIf(id, l)
		return nil, false
	}
	res, err := st.Restore()
	if err != nil {
		s.forgetIf(id, l)
		return nil, false
	}
	return res, true
}

// decodeRecord validates raw record bytes — one whole TLV frame — as
// the record for id, returning its result state. Every failure mode
// reads as a miss.
func decodeRecord(buf []byte, id string) (campaign.ResultState, bool) {
	payload, n, err := tlv.ParseFrame(buf)
	if err != nil || n != len(buf) {
		return campaign.ResultState{}, false
	}
	gotID, st, err := tlv.DecodeEnvelopePayload(payload)
	if err != nil || gotID != id {
		return campaign.ResultState{}, false
	}
	return st, true
}

// forgetIf drops an id's slot only if it still points at the location
// the failed read used — a concurrent Put or compaction may have moved
// the record somewhere healthy in the meantime.
func (s *Store) forgetIf(id string, l location) {
	s.mu.Lock()
	if s.loc[id] == l {
		delete(s.loc, id)
	}
	s.mu.Unlock()
}

// putBufs recycles Put's frame buffers: appendLocked writes a frame
// out and keeps none of it. A buffer grown past maxPooledPut goes to
// the collector instead, so one outsized record does not stay pinned.
var putBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledPut = 1 << 20

// Put persists a completed result under its scenario id: encode to one
// TLV frame, append it to the id's shard tail segment, then append the
// index line. The segment append is the commit point — Put returns only
// after the whole record is down, and readers locate records by exact
// byte range, so a torn write is never served. A crash between the two
// appends loses only an unacknowledged record: it re-simulates once and
// its dead bytes vanish at the next compaction. Put after Close fails.
func (s *Store) Put(id string, res *campaign.Result) error {
	if err := validID(id); err != nil {
		return err
	}
	start := s.opStart()
	defer s.opDone(OpPut, shardOf(id), start)
	st := res.State(s.compact)
	buf := putBufs.Get().(*[]byte)
	frame := tlv.AppendEnvelope((*buf)[:0], id, &st)
	defer func() {
		if cap(frame) <= maxPooledPut {
			*buf = frame[:0]
			putBufs.Put(buf)
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: put %s: %w", id, errClosed)
	}
	l, err := s.appendLocked(id, frame)
	if err != nil {
		return fmt.Errorf("store: commit %s: %w", id, err)
	}
	if err := s.appendIndexLocked(id, l); err != nil {
		// The record is committed and serves this process either way,
		// but an entry that cannot even marshal would stay invisible to
		// every future Open until a full rescan — surface it.
		return err
	}
	s.loc[id] = l
	return nil
}

// appendIndexLocked appends one sidecar line for a freshly located
// record. A failed file append is tolerated: the record is committed
// and serves this process; the next Open misses it and re-simulates
// (or, on a replica, re-ingests). A failed marshal is not — that entry
// would never reach any index, so it propagates.
func (s *Store) appendIndexLocked(id string, l location) error {
	if s.index == nil {
		return nil
	}
	ie, err := json.Marshal(indexEntry{
		V: indexVersion, ID: id, Shard: l.shard, Seg: l.seg, Off: l.off, Len: l.n, F: formatTLV,
	})
	if err != nil {
		return fmt.Errorf("store: encode index entry %s: %w", id, err)
	}
	s.index.Write(append(ie, '\n'))
	return nil
}

// appendLocked writes one TLV frame to the id's shard tail segment and
// returns where it landed, rotating the tail once it outgrows the
// threshold. The write offset comes from a stat, not a running counter,
// so foreign bytes (crash debris left by a torn write) never skew
// locations.
func (s *Store) appendLocked(id string, frame []byte) (location, error) {
	shard := shardOf(id)
	ss := s.shards[shard]
	if ss == nil {
		ss = &shardState{tailSeg: -1}
		s.shards[shard] = ss
	}
	if ss.tail == nil {
		// MkdirAll unconditionally: compaction may have removed a shard
		// directory it emptied, while the shard state (and its advanced
		// tail number) lives on.
		if err := os.MkdirAll(s.shardDir(shard), 0o755); err != nil {
			return location{}, err
		}
		ss.tailSeg = max(ss.tailSeg, 0)
		f, err := os.OpenFile(s.segPath(shard, ss.tailSeg),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return location{}, err
		}
		ss.tail = f
	}
	fi, err := ss.tail.Stat()
	if err != nil {
		return location{}, err
	}
	off := fi.Size()
	n := int64(len(frame))
	if _, err := ss.tail.Write(frame); err != nil {
		// A partial frame may be down. Trim it so the next append starts
		// clean; if even that fails, the frame scan resyncs past it.
		_ = ss.tail.Truncate(off)
		return location{}, err
	}
	l := location{shard: shard, seg: ss.tailSeg, off: off, n: n}
	s.bumpGenLocked(n)
	if off+n >= s.segBytes {
		cerr := ss.tail.Close()
		ss.tail = nil
		ss.tailSeg++
		if cerr != nil {
			// A failed close can be deferred write-back failing, which
			// means the record just written may not be safe. Fail the Put
			// so the caller re-simulates; the appended bytes degrade to
			// crash debris, which every rescan already tolerates.
			return location{}, fmt.Errorf("store: rotate %s/%d: %w", shard, ss.tailSeg-1, cerr)
		}
	}
	return l, nil
}

// CompactStats reports what a Compact pass did.
type CompactStats struct {
	// Live records were carried into fresh segments.
	Live int
	// Dropped records were indexed but unreadable or unparsable (bit
	// rot); superseded and crash-garbage bytes are dropped silently.
	Dropped int
	// Segment file and byte counts before and after.
	SegmentsBefore, SegmentsAfter int
	BytesBefore, BytesAfter       int64
}

// Compact rewrites every live record into fresh segments and deletes
// the old ones, dropping superseded versions, crash garbage, and
// corrupt entries. It is an explicit maintenance pass (cmd/sweep
// -compact-store), not a background thread. The directory lock
// guarantees no other Store instance indexes the segments it deletes.
//
// Within this Store instance, compaction locks shard-at-a-time: the
// store mutex is released between shards, so concurrent Put/Get traffic
// on a huge store stalls for at most one shard's rewrite instead of the
// whole pass. Records Put mid-compaction land in segments numbered
// after the shard's compaction output and are never deleted; a Get
// racing the final old-segment deletion degrades to a cache miss
// (re-simulate), never to wrong data. Crash-safe ordering is unchanged:
// new segments are written and renamed in, the index is rewritten to
// point at them, and only then are old segments deleted — an
// interruption leaves duplicates (the newer copy wins on any rescan),
// never a lost record.
func (s *Store) Compact() (CompactStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	var stats CompactStats

	s.mu.Lock()
	shards := make([]string, 0, len(s.shards))
	for sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.Unlock()
	sort.Strings(shards)

	var oldSegs []string
	var emptied []string
	for _, shard := range shards {
		shardStart := s.opStart()
		segs, carried, err := s.compactShard(shard, &stats)
		s.opDone(OpCompactShard, shard, shardStart)
		if err != nil {
			return stats, err
		}
		oldSegs = append(oldSegs, segs...)
		if carried == 0 {
			emptied = append(emptied, shard)
		}
	}

	// Point the index at the new segments before deleting the old ones:
	// a crash in between leaves superseded duplicates, never a hole.
	s.mu.Lock()
	err := s.rewriteIndexLocked()
	s.bumpGenLocked(1) // compaction moved records; pollers must re-diff
	s.mu.Unlock()
	if err != nil {
		return stats, err
	}
	for _, p := range oldSegs {
		os.Remove(p)
	}
	// Drop shard directories compaction emptied; best-effort — the
	// removal fails harmlessly when a concurrent Put has already
	// repopulated the directory (appendLocked re-creates it on demand).
	// Under the store mutex so it cannot interleave with appendLocked's
	// MkdirAll-then-OpenFile sequence: removing the directory in that
	// window would fail the Put and silently drop a cache write.
	s.mu.Lock()
	for _, shard := range emptied {
		os.Remove(s.shardDir(shard)) //sweepvet:allow(iolock) must not interleave with appendLocked's MkdirAll (see above)
	}
	s.mu.Unlock()
	return stats, nil
}

// compactShard rewrites one shard's live records into fresh segments
// under the store mutex, returning the segment paths it superseded and
// how many records it carried. Live locations move in s.loc as each new
// segment lands, so Gets issued after the shard's turn read the fresh
// copy.
func (s *Store) compactShard(shard string, stats *CompactStats) (oldSegs []string, carried int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss := s.shards[shard]
	if ss == nil {
		// Raced with a previous compaction's bookkeeping; nothing to do.
		return nil, 0, nil
	}

	// Live ids of this shard, in (seg, off) order so compacted segments
	// preserve append order deterministically.
	var ids []string
	for id, l := range s.loc {
		if l.shard == shard {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := s.loc[ids[i]], s.loc[ids[j]]
		if a.seg != b.seg {
			return a.seg < b.seg
		}
		return a.off < b.off
	})

	// Account for and remember every existing segment. A shard whose
	// directory never materialized (a Put that failed before its first
	// append) has nothing to compact.
	segEntries, err := os.ReadDir(s.shardDir(shard)) //sweepvet:allow(iolock) shard-at-a-time compaction owns the mutex for exactly this shard's rewrite
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("store: compact %s: %w", shard, err)
	}
	for _, e := range segEntries {
		if _, ok := parseSegName(e.Name()); !ok || e.IsDir() {
			continue
		}
		stats.SegmentsBefore++
		if fi, err := e.Info(); err == nil {
			stats.BytesBefore += fi.Size()
		}
		oldSegs = append(oldSegs, filepath.Join(s.shardDir(shard), e.Name()))
	}
	if ss.tail != nil {
		if err := ss.tail.Close(); err != nil {
			// Abort: nothing has moved yet, and a close error can mean the
			// tail's write-back failed — compacting on top of it could
			// carry bad bytes forward and then delete the only good copy.
			return nil, 0, fmt.Errorf("store: compact %s: close tail: %w", shard, err)
		}
		ss.tail = nil
	}

	// Read live records back, each as its exact frame, and pack them into
	// fresh segments numbered after the current tail, flushing at the
	// rotation threshold so memory stays bounded at one segment
	// regardless of how large a shard has grown. Locations update only
	// after a segment's rename — a failed flush leaves every location
	// pointing at the old, intact copy.
	seg := ss.tailSeg + 1
	var pendingIDs []string
	var pending [][]byte
	var pendingBytes int64
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		// The pass deletes the superseded segments once it completes, so
		// writeSegment's Sync is what keeps a power cut after the deletion
		// from losing every live record packed here.
		if err := s.writeSegment("put-compact-*.tmp", shard, seg, pending...); err != nil {
			return err
		}
		var off int64
		for i, frame := range pending {
			s.loc[pendingIDs[i]] = location{shard: shard, seg: seg, off: off, n: int64(len(frame))}
			off += int64(len(frame))
		}
		stats.SegmentsAfter++
		stats.BytesAfter += off
		ss.tailSeg = seg
		seg++
		pendingIDs, pending, pendingBytes = pendingIDs[:0], pending[:0], 0
		return nil
	}
	for _, id := range ids {
		l := s.loc[id]
		buf, ok := readAtLocation(s.segPath(l.shard, l.seg), l)
		if !ok {
			stats.Dropped++
			delete(s.loc, id)
			continue
		}
		if _, ok := decodeRecord(buf, id); !ok {
			stats.Dropped++
			delete(s.loc, id)
			continue
		}
		pendingIDs = append(pendingIDs, id)
		pending = append(pending, buf)
		pendingBytes += int64(len(buf))
		carried++
		if pendingBytes >= s.segBytes {
			if err := flush(); err != nil {
				return nil, carried, fmt.Errorf("store: compact %s: %w", shard, err)
			}
		}
	}
	if err := flush(); err != nil {
		return nil, carried, fmt.Errorf("store: compact %s: %w", shard, err)
	}
	if carried == 0 {
		// Nothing was flushed, so the tail still numbers a superseded
		// segment about to be deleted; advance past it so a later Put
		// never appends to a file the deletion sweep then removes.
		ss.tailSeg = seg
	}
	stats.Live += carried
	return oldSegs, carried, nil
}

// writeSegment installs chunks as segment seg of shard: written to a
// temp file (named by pattern) in the store root, synced, then renamed
// into place, so the segment appears whole or not at all, and is
// durable before any caller deletes the copy it supersedes.
func (s *Store) writeSegment(pattern, shard string, seg int, chunks ...[]byte) error {
	tmp, err := os.CreateTemp(s.dir, pattern)
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err = tmp.Write(c); err != nil {
			break
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.segPath(shard, seg))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Close releases the index and tail handles and the directory lock,
// and reports the first close error: records are written straight
// through (no userspace buffering), so a failed close here is the last
// chance to learn that a tail's deferred write-back failed after the
// Put was acknowledged. Close is idempotent; writes after it fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.closeTailsLocked()
	if s.index != nil {
		if ierr := s.index.Close(); ierr != nil && err == nil {
			err = ierr
		}
		s.index = nil
	}
	if s.lock != nil {
		s.lock.Close() //sweepvet:allow(close) the lock file holds no data; closing it releases the flock
	}
	return err
}

// closeTailsLocked closes every open tail handle, returning the first
// error while still releasing the rest.
func (s *Store) closeTailsLocked() error {
	var first error
	for _, ss := range s.shards {
		if ss.tail != nil {
			if err := ss.tail.Close(); err != nil && first == nil {
				first = err
			}
			ss.tail = nil
		}
	}
	return first
}
