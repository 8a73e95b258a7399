package store

// Replication support: the writer side exposes the store's append-only
// segments as a shippable feed (Manifest + ReadSegment), and the
// replica side installs shipped bytes (IngestSegment + DropSegment)
// without ever simulating. The unit of shipping is one whole segment
// file: segments are append-only and bounded by the rotation threshold,
// so re-shipping a grown tail costs at most one segment of bandwidth,
// and an atomic temp+rename install means a half-downloaded segment is
// never visible — the same torn-tail discipline that makes the writer
// crash-safe makes the replica crash-safe for free.
//
// The sidecar index is deliberately NOT shipped: IngestSegment rescans
// the installed bytes and derives locations locally. The bytes are
// identical on both sides, so the derived index is identical too, and
// a replica can never hold an index that disagrees with its own
// segments (the one corruption a shipped index could introduce).
//
// Change detection is a generation cursor: Manifest reports a counter
// that moves on every mutation (appends advance it by the bytes
// written, so it stays comparable across a writer restart, where it
// re-initializes to the store's total segment bytes). A poller whose
// cursor still equals the current generation can skip the manifest
// diff entirely; the serve layer maps that to 304 Not Modified.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// SegmentInfo describes one on-disk segment file: its shard, number,
// current committed size in bytes, and encoding. Format is always
// "tlv"; it stays in the manifest for followers that still check it.
type SegmentInfo struct {
	Shard  string `json:"shard"`
	Seg    int    `json:"seg"`
	Size   int64  `json:"size"`
	Format string `json:"format,omitempty"`
}

// FormatTLV names the segment encoding in wire parameters and
// manifests. It is the only one a segment reference may carry.
const FormatTLV = formatTLV

// ErrBadSegmentRef marks a shard, segment number or wire format that
// cannot name a segment file: a caller error, unlike a read failure.
var ErrBadSegmentRef = errors.New("store: bad segment reference")

// ShardOf reports the shard a scenario id lives in — the id's first two
// hex characters for content-hash ids, a hash-derived pair otherwise.
// Exported so routing layers can partition the id space exactly the way
// the store does.
func ShardOf(id string) string { return shardOf(id) }

// Has reports whether the store believes it holds a record for id,
// without reading or decoding it. Like Len it can over-count (a corrupt
// record still registered in the index), never under-count.
func (s *Store) Has(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.loc[id]
	return ok
}

// Manifest snapshots every segment file with its current size, sorted
// by (shard, seg), plus the store's generation cursor. Two Manifest
// calls returning the same generation are guaranteed to describe the
// same bytes; a differing generation tells a replica to diff the
// listings and ship what changed.
func (s *Store) Manifest() (gen int64, segs []SegmentInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen, s.manifestLocked()
}

func (s *Store) manifestLocked() []SegmentInfo {
	var segs []SegmentInfo
	root := filepath.Join(s.dir, segmentsDir)
	shards, err := os.ReadDir(root)
	if err != nil {
		return segs
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(root, sh.Name()))
		if err != nil {
			continue
		}
		for _, e := range entries {
			n, ok := parseSegName(e.Name())
			if !ok || e.IsDir() {
				continue
			}
			fi, err := e.Info()
			if err != nil {
				continue
			}
			segs = append(segs, SegmentInfo{Shard: sh.Name(), Seg: n, Size: fi.Size(), Format: formatTLV})
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].Shard != segs[j].Shard {
			return segs[i].Shard < segs[j].Shard
		}
		return segs[i].Seg < segs[j].Seg
	})
	return segs
}

// validSegmentRef refuses references that could name anything other
// than a segment file (path traversal, negative numbers).
func validSegmentRef(shard string, seg int) error {
	if len(shard) != 2 || !isHexLower(shard[0]) || !isHexLower(shard[1]) {
		return fmt.Errorf("%w: invalid shard %q", ErrBadSegmentRef, shard)
	}
	if seg < 0 {
		return fmt.Errorf("%w: invalid segment number %d", ErrBadSegmentRef, seg)
	}
	return nil
}

// CheckSegmentFormat refuses any wire segment format but "tlv" — the
// empty one included, which a peer from before TLV means as JSONL — so
// a follower never installs JSONL bytes as TLV. Formats travel only on
// the wire; the serving and following ends check them where they
// arrive.
func CheckSegmentFormat(format string) error {
	if format != formatTLV {
		return fmt.Errorf("%w: segment format %q is not %q", ErrBadSegmentRef, format, formatTLV)
	}
	return nil
}

// ReadSegment returns a segment file's current bytes. The snapshot is
// taken in one ReadFile, so it always ends on a committed record
// boundary or inside the final append — and a final partial record is
// exactly what ingestion already tolerates.
//
// The bytes are TLV. A caller answering a request that names a segment
// format must pass that format through CheckSegmentFormat first.
func (s *Store) ReadSegment(shard string, seg int) ([]byte, error) {
	if err := validSegmentRef(shard, seg); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.segPath(shard, seg))
	if err != nil {
		return nil, err
	}
	return data, nil
}

// IngestSegment atomically installs shipped segment bytes as
// segments/<shard>/seg-NNNN.tlv and folds the records they hold
// into the index — the replica-side half of segment shipping. The install is
// temp+rename, so a crash mid-ingest leaves either the old file or the
// new one, never a splice; the scan that follows derives the same
// locations the writer's index holds, because the bytes are the same.
// Re-ingesting a segment that grew on the writer replaces the whole
// file; locations previously pointing into it are recomputed from the
// new bytes (ids the new bytes no longer carry degrade to misses, never
// to wrong data).
//
// Ingestion assumes the replica role: the caller must not be Putting
// into the same shard concurrently (the serve layer's store-only
// replica mode guarantees this — every miss sheds before it reaches a
// Put).
//
// data must be TLV: IngestSegment does not look at a wire format, so a
// caller installing bytes whose format came over the wire (a manifest's
// SegmentInfo.Format) must pass that format through CheckSegmentFormat
// first.
func (s *Store) IngestSegment(shard string, seg int, data []byte) error {
	if err := validSegmentRef(shard, seg); err != nil {
		return err
	}
	if err := os.MkdirAll(s.shardDir(shard), 0o755); err != nil {
		return fmt.Errorf("store: ingest %s/%d: %w", shard, seg, err)
	}
	tmp, err := os.CreateTemp(s.dir, "put-ingest-*.tmp")
	if err != nil {
		return fmt.Errorf("store: ingest %s/%d: %w", shard, seg, err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: ingest %s/%d: %v / %v", shard, seg, werr, cerr)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// The rename happens under the store mutex deliberately: the install
	// and the location-map rewrite below must be one atomic step from a
	// concurrent Get's point of view.
	if err := os.Rename(tmp.Name(), s.segPath(shard, seg)); err != nil { //sweepvet:allow(iolock) atomic install; one rename, not a transfer
		os.Remove(tmp.Name()) //sweepvet:allow(iolock) cleanup of the failed install's temp
		return fmt.Errorf("store: ingest %s/%d: %w", shard, seg, err)
	}
	ss := s.shards[shard]
	if ss == nil {
		ss = &shardState{tailSeg: -1}
		s.shards[shard] = ss
	}
	if ss.tail != nil {
		// Defensive: a replica never appends, but if a tail handle is
		// somehow open on this shard, the renamed-in file must not share
		// it.
		ss.tail.Close() //sweepvet:allow(close) handle names a file the rename above already replaced
		ss.tail = nil
	}
	ss.tailSeg = max(ss.tailSeg, seg)
	// Recompute this segment's contribution to the location map from the
	// fresh bytes: forget what pointed here, then fold the scan and
	// append the index lines. A failed index append is recovered by the
	// next open's rescan.
	for id, l := range s.loc {
		if l.shard == shard && l.seg == seg {
			delete(s.loc, id)
		}
	}
	s.scanSegmentBytes(shard, seg, data, func(id string, l location) {
		s.appendIndexLocked(id, l) //nolint:errcheck
	})
	s.bumpGenLocked(int64(len(data)))
	return nil
}

// DropSegment removes a segment the writer no longer lists — the
// replica-side echo of the writer's compaction. Locations pointing into
// it are forgotten first, so a concurrent Get degrades to a miss, never
// reads a recycled offset.
func (s *Store) DropSegment(shard string, seg int) error {
	if err := validSegmentRef(shard, seg); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, l := range s.loc {
		if l.shard == shard && l.seg == seg {
			delete(s.loc, id)
		}
	}
	if ss := s.shards[shard]; ss != nil && ss.tail != nil && ss.tailSeg == seg {
		ss.tail.Close() //sweepvet:allow(close) handle names the segment being dropped
		ss.tail = nil
	}
	// Removal stays under the mutex so it cannot interleave with a Get
	// re-reading a location the loop above just forgot.
	if err := os.Remove(s.segPath(shard, seg)); err != nil && !os.IsNotExist(err) { //sweepvet:allow(iolock) one unlink, atomic with the location forget
		return fmt.Errorf("store: drop %s/%d: %w", shard, seg, err)
	}
	s.bumpGenLocked(1)
	return nil
}
