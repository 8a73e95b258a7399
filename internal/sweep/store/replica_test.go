package store

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// TestManifestTracksMutations: the manifest lists every segment with
// its real size, and the generation cursor moves on every mutation —
// including across a reopen, where it re-seeds from total bytes.
func TestManifestTracksMutations(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	gen0, segs := s.Manifest()
	if len(segs) != 0 {
		t.Fatalf("fresh store lists %d segments", len(segs))
	}
	if err := s.Put("aa11", testResult(t, 5)); err != nil {
		t.Fatal(err)
	}
	gen1, segs := s.Manifest()
	if gen1 <= gen0 {
		t.Fatalf("generation did not advance on Put: %d -> %d", gen0, gen1)
	}
	if len(segs) != 1 || segs[0].Shard != "aa" || segs[0].Seg != 0 || segs[0].Size <= 0 {
		t.Fatalf("unexpected manifest: %+v", segs)
	}
	if segs[0].Format != FormatTLV {
		t.Fatalf("default-format store must list TLV segments, got %q", segs[0].Format)
	}
	fi, err := os.Stat(s.segPath("aa", 0))
	if err != nil || fi.Size() != segs[0].Size {
		t.Fatalf("manifest size %d, file size %v (%v)", segs[0].Size, fi, err)
	}
	s.Close()

	// A reopen with unchanged bytes must report the same cursor: a
	// replica that synced before the writer restarted still short-
	// circuits on it.
	re := open(t, dir, Options{})
	gen2, _ := re.Manifest()
	if gen2 != gen1 {
		t.Fatalf("reopen changed the cursor with unchanged bytes: %d -> %d", gen1, gen2)
	}
}

// TestIngestShipsRecordsByteIdentically: bytes read from a writer's
// segment and ingested into a fresh directory serve the same records —
// the whole segment-shipping contract at the store level.
func TestIngestShipsRecordsByteIdentically(t *testing.T) {
	writer := open(t, t.TempDir(), Options{})
	res := testResult(t, 7)
	for _, id := range []string{"ab12", "ab34", "cd56"} {
		if err := writer.Put(id, res); err != nil {
			t.Fatal(err)
		}
	}

	replica := open(t, t.TempDir(), Options{})
	_, segs := writer.Manifest()
	for _, si := range segs {
		data, err := writer.ReadSegment(si.Shard, si.Seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.IngestSegment(si.Shard, si.Seg, data); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"ab12", "ab34", "cd56"} {
		if !replica.Has(id) {
			t.Fatalf("replica missing %s after ingest", id)
		}
		got, ok := replica.Get(id)
		if !ok {
			t.Fatalf("replica Get(%s) missed", id)
		}
		want, _ := writer.Get(id)
		if got.MobileAll != want.MobileAll || got.TotalMeasurements != want.TotalMeasurements {
			t.Fatalf("replica served a different result for %s", id)
		}
	}
	// Shipped segment files are byte-identical to the writer's.
	for _, si := range segs {
		w, _ := writer.ReadSegment(si.Shard, si.Seg)
		r, err := replica.ReadSegment(si.Shard, si.Seg)
		if err != nil || !bytes.Equal(w, r) {
			t.Fatalf("segment %s/%d differs after shipping (%v)", si.Shard, si.Seg, err)
		}
	}

	// A re-ingest of a grown segment replaces the file and re-derives
	// locations; records survive a replica reopen via the appended index
	// (and via rescan if the index is lost).
	replica.Close()
	re := open(t, replica.Dir(), Options{})
	if !re.Has("ab12") || !re.Has("cd56") {
		t.Fatal("ingested records lost across reopen")
	}
}

// TestIngestTornSnapshotHeals covers a snapshot cut mid-record: the
// truncated frame hides only itself, every complete record still
// serves, and a later re-ingest of the full segment heals the missing
// record.
func TestIngestTornSnapshotHeals(t *testing.T) {
	t.Run(FormatTLV, func(t *testing.T) {
		shard, kept, lost := "ee", "ee11", "ee22"
		writer := open(t, t.TempDir(), Options{})
		if err := writer.Put(kept, testResult(t, 3)); err != nil {
			t.Fatal(err)
		}
		if err := writer.Put(lost, testResult(t, 4)); err != nil {
			t.Fatal(err)
		}
		full, err := writer.ReadSegment(shard, 0)
		if err != nil {
			t.Fatal(err)
		}
		torn := full[:len(full)-10] // cuts into the second record

		replica := open(t, t.TempDir(), Options{})
		if err := replica.IngestSegment(shard, 0, torn); err != nil {
			t.Fatal(err)
		}
		if !replica.Has(kept) {
			t.Fatal("complete record must survive a torn snapshot")
		}
		if replica.Has(lost) {
			t.Fatal("torn record must not be acknowledged")
		}
		if err := replica.IngestSegment(shard, 0, full); err != nil {
			t.Fatal(err)
		}
		if _, ok := replica.Get(lost); !ok {
			t.Fatal("re-ingest of the full segment must heal the record")
		}
	})
}

// TestDropSegmentForgetsRecords: dropping a segment the writer
// compacted away removes the file and degrades its records to misses.
func TestDropSegmentForgetsRecords(t *testing.T) {
	replica := open(t, t.TempDir(), Options{})
	writer := open(t, t.TempDir(), Options{})
	if err := writer.Put("ff77", testResult(t, 9)); err != nil {
		t.Fatal(err)
	}
	data, _ := writer.ReadSegment("ff", 0)
	if err := replica.IngestSegment("ff", 0, data); err != nil {
		t.Fatal(err)
	}
	gen1, _ := replica.Manifest()
	if err := replica.DropSegment("ff", 0); err != nil {
		t.Fatal(err)
	}
	if replica.Has("ff77") {
		t.Fatal("dropped segment's record still registered")
	}
	if _, err := os.Stat(replica.segPath("ff", 0)); !os.IsNotExist(err) {
		t.Fatalf("segment file survived the drop: %v", err)
	}
	gen2, _ := replica.Manifest()
	if gen2 <= gen1 {
		t.Fatal("drop did not advance the generation cursor")
	}
	// Dropping an already-absent segment is not an error (replays of a
	// manifest diff must be idempotent).
	if err := replica.DropSegment("ff", 0); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentRefValidation: traversal-shaped shard names and negative
// segment numbers are rejected by every replication entry point.
func TestSegmentRefValidation(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	bad := []struct {
		shard string
		seg   int
	}{{"..", 0}, {"a/", 0}, {"abc", 0}, {"A1", 0}, {"ab", -1}, {"", 0}}
	for _, c := range bad {
		if _, err := s.ReadSegment(c.shard, c.seg); err == nil {
			t.Errorf("ReadSegment(%q,%d) accepted", c.shard, c.seg)
		}
		if err := s.IngestSegment(c.shard, c.seg, nil); err == nil {
			t.Errorf("IngestSegment(%q,%d) accepted", c.shard, c.seg)
		}
		if err := s.DropSegment(c.shard, c.seg); err == nil {
			t.Errorf("DropSegment(%q,%d) accepted", c.shard, c.seg)
		}
	}
	// Any format but TLV is rejected wherever a format arrives: the
	// empty one and "jsonl" name v2 segments, which no store holds after
	// Open.
	for _, format := range []string{"", "jsonl", "protobuf"} {
		if err := CheckSegmentFormat(format); !errors.Is(err, ErrBadSegmentRef) {
			t.Errorf("CheckSegmentFormat accepted format %q: %v", format, err)
		}
	}
	if err := CheckSegmentFormat(FormatTLV); err != nil {
		t.Errorf("CheckSegmentFormat(%q): %v", FormatTLV, err)
	}
}
