package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// countSegments walks segments/ and returns how many pack files exist,
// in either encoding.
func countSegments(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(filepath.Join(dir, segmentsDir), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if _, _, ok := parseSegName(filepath.Base(p)); !d.IsDir() && ok {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// hashID mimics the sweep's content-hash ids: 16 hex chars, uniformly
// sharded by their first two.
func hashID(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("scenario-%d", i)))
	return hex.EncodeToString(sum[:8])
}

// TestSegmentsPackManyRecords is the tentpole's scaling contract: 10k
// records land in a bounded number of segment files — a couple hundred
// (the 256-shard floor), not 10k one-record files — and every one of
// them is readable, both live and across a reopen.
func TestSegmentsPackManyRecords(t *testing.T) {
	dir := t.TempDir()
	res, err := campaign.Run(campaign.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, Options{Compact: true})
	const n = 10000
	for i := 0; i < n; i++ {
		if err := s.Put(hashID(i), res); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	segs := countSegments(t, dir)
	if segs > n/10 {
		t.Fatalf("%d records produced %d segment files; packing should stay well under %d",
			n, segs, n/10)
	}
	if segs == 0 {
		t.Fatal("no segment files written")
	}
	for i := 0; i < n; i += 97 {
		if _, ok := s.Get(hashID(i)); !ok {
			t.Fatalf("record %d unreadable before reopen", i)
		}
	}
	s.Close()

	re := open(t, dir, Options{Compact: true})
	if re.Len() != n {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), n)
	}
	for i := 0; i < n; i += 97 {
		if _, ok := re.Get(hashID(i)); !ok {
			t.Fatalf("record %d unreadable after reopen", i)
		}
	}
}

// TestSegmentRotation drives a tiny threshold and checks appends rotate
// into numbered segments instead of growing one file forever.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	res, err := campaign.Run(campaign.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, Options{Compact: true, SegmentBytes: 1})
	// Same shard on purpose: ids share the "ab" prefix.
	ids := []string{"ab01", "ab02", "ab03"}
	for _, id := range ids {
		if err := s.Put(id, res); err != nil {
			t.Fatal(err)
		}
	}
	for i := range ids {
		if _, err := os.Stat(filepath.Join(dir, segmentsDir, "ab", segName(i, true))); err != nil {
			t.Fatalf("expected rotated segment %d: %v", i, err)
		}
	}
	for _, id := range ids {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("rotated record %s unreadable", id)
		}
	}
}

// TestStoreCompactionDropsDeadBytes re-puts ids (superseding their old
// bytes) and injects crash garbage, then asserts Compact rewrites only
// the live records, shrinks the shard, and keeps everything readable —
// including after a reopen and after dropping the index entirely.
func TestStoreCompactionDropsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	res, err := campaign.Run(campaign.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Compact: true, SegmentBytes: 1 << 20}
	s := open(t, dir, opt)
	ids := []string{"aa01", "aa02", "ab11", "cd22"}
	for _, id := range ids {
		if err := s.Put(id, res); err != nil {
			t.Fatal(err)
		}
	}
	// Supersede two ids twice over: their first bytes are now dead.
	for i := 0; i < 2; i++ {
		if err := s.Put("aa01", res); err != nil {
			t.Fatal(err)
		}
		if err := s.Put("ab11", res); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Crash garbage: a torn, unacknowledged line at a shard tail.
	p, _ := findRecordLine(t, dir, "cd22")
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"id":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = open(t, dir, opt)
	var before int64
	filepath.WalkDir(filepath.Join(dir, segmentsDir), func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, ferr := d.Info(); ferr == nil {
				before += fi.Size()
			}
		}
		return nil
	})
	stats, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Live != len(ids) {
		t.Fatalf("Compact carried %d live records, want %d", stats.Live, len(ids))
	}
	if stats.BytesAfter >= stats.BytesBefore {
		t.Fatalf("Compact did not shrink: %d -> %d bytes", stats.BytesBefore, stats.BytesAfter)
	}
	if stats.BytesBefore != before {
		t.Fatalf("BytesBefore = %d, measured %d", stats.BytesBefore, before)
	}
	for _, id := range ids {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("record %s lost by compaction", id)
		}
	}
	// The dead copies are physically gone: each id appears exactly once
	// across all segments (the id bytes are verbatim in either
	// encoding).
	for _, id := range ids {
		needle := []byte(id)
		count := 0
		filepath.WalkDir(filepath.Join(dir, segmentsDir), func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			count += strings.Count(string(data), string(needle))
			return nil
		})
		if count != 1 {
			t.Fatalf("id %s appears %d times after compaction, want 1", id, count)
		}
	}
	s.Close()

	// Reopen via the index, then via a full rescan: both must serve the
	// compacted records.
	re := open(t, dir, opt)
	for _, id := range ids {
		if _, ok := re.Get(id); !ok {
			t.Fatalf("record %s unreadable after compaction + reopen", id)
		}
	}
	re.Close()
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}
	re2 := open(t, dir, opt)
	for _, id := range ids {
		if _, ok := re2.Get(id); !ok {
			t.Fatalf("record %s unreadable after compaction + index loss", id)
		}
	}
}

// TestIndexRebuildDeterministic destroys the sidecar twice and asserts
// the rescan writes back byte-identical indexes: segment and shard
// walks are explicitly sorted, so rebuild order never depends on
// directory-entry order.
func TestIndexRebuildDeterministic(t *testing.T) {
	dir := t.TempDir()
	res, err := campaign.Run(campaign.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, Options{Compact: true, SegmentBytes: 4 << 10})
	for i := 0; i < 40; i++ {
		if err := s.Put(hashID(i), res); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	rebuild := func() []byte {
		t.Helper()
		if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
			t.Fatal(err)
		}
		re := open(t, dir, Options{Compact: true, SegmentBytes: 4 << 10})
		re.Close()
		data, err := os.ReadFile(filepath.Join(dir, indexName))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatal("rebuild wrote an empty index")
		}
		return data
	}
	first := rebuild()
	second := rebuild()
	if string(first) != string(second) {
		t.Fatal("two rebuilds of one store produced different indexes")
	}
	// And the rebuilt entries are real: every id still resolves.
	re := open(t, dir, Options{Compact: true, SegmentBytes: 4 << 10})
	defer re.Close()
	for i := 0; i < 40; i++ {
		if _, ok := re.Get(hashID(i)); !ok {
			t.Fatalf("record %d lost across rebuilds", i)
		}
	}
}

// segmentsByExt walks segments/ and buckets pack files by encoding.
func segmentsByExt(t *testing.T, dir string) (jsonl, tlvSegs []string) {
	t.Helper()
	err := filepath.WalkDir(filepath.Join(dir, segmentsDir), func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if _, isTLV, ok := parseSegName(filepath.Base(p)); ok {
			if isTLV {
				tlvSegs = append(tlvSegs, p)
			} else {
				jsonl = append(jsonl, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return jsonl, tlvSegs
}

// goldenV2IDs are the records inside testdata/v2-layout, the checked-in
// golden v2 store no future code change may stop reading. The store no
// longer writes v2, so these bytes are the frozen contract.
var goldenV2IDs = []string{"aa01", "ab11", "cd22"}

// copyGoldenV2 copies testdata/v2-layout into a fresh directory tests
// may open and modify.
func copyGoldenV2(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "v2-layout"))); err != nil {
		t.Fatalf("copy golden v2 layout: %v", err)
	}
	return dir
}

// TestStoreMixedFormatsReopenAndCompact is the v2/v3 coexistence
// contract: a store holding legacy JSONL segments keeps serving them
// byte-untouched, new appends land as v3 frames in fresh segments
// numbered after them, and Compact transcodes the whole store to TLV
// without changing any answer.
func TestStoreMixedFormatsReopenAndCompact(t *testing.T) {
	dir := copyGoldenV2(t)
	v2Segs, _ := segmentsByExt(t, dir)
	v2Bytes := make(map[string][]byte)
	for _, p := range v2Segs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		v2Bytes[p] = data
	}

	s := open(t, dir, Options{})
	res := testResult(t, 5)
	tlvIDs := []string{"aa02", "cd33"}
	for _, id := range tlvIDs {
		if err := s.Put(id, res); err != nil {
			t.Fatal(err)
		}
	}
	all := append(append([]string{}, goldenV2IDs...), tlvIDs...)
	before := make(map[string]*campaign.Result)
	for _, id := range all {
		got, ok := s.Get(id)
		if !ok {
			t.Fatalf("record %s unreadable in the mixed store", id)
		}
		before[id] = got
	}
	// Both encodings now coexist on disk, the appends went to the next
	// segment number, and the old v2 bytes are untouched.
	v2Now, v3Now := segmentsByExt(t, dir)
	if len(v2Now) != len(v2Segs) || len(v3Now) != len(tlvIDs) {
		t.Fatalf("mixed store has %d JSONL / %d TLV segments", len(v2Now), len(v3Now))
	}
	for _, shard := range []string{"aa", "cd"} {
		if _, err := os.Stat(s.segPath(shard, 1, true)); err != nil {
			t.Fatalf("TLV append in shard %s did not start after the legacy segment: %v", shard, err)
		}
	}
	for _, p := range v2Now {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, v2Bytes[p]) {
			t.Fatalf("legacy segment %s was written to", p)
		}
	}
	s.Close()

	// A reopen of the mixed store serves everything, and compaction
	// converges it to TLV.
	re := open(t, dir, Options{})
	for _, id := range all {
		if _, ok := re.Get(id); !ok {
			t.Fatalf("record %s lost across a mixed reopen", id)
		}
	}
	stats, err := re.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Live != len(all) {
		t.Fatalf("Compact carried %d live records, want %d", stats.Live, len(all))
	}
	v2After, v3After := segmentsByExt(t, dir)
	if len(v2After) != 0 || len(v3After) == 0 {
		t.Fatalf("compaction left %d JSONL / %d TLV segments, want 0 / >0", len(v2After), len(v3After))
	}
	for _, id := range all {
		got, ok := re.Get(id)
		if !ok {
			t.Fatalf("record %s lost by cross-format compaction", id)
		}
		want := before[id]
		if got.MobileAll != want.MobileAll || got.TotalMeasurements != want.TotalMeasurements {
			t.Fatalf("compaction changed record %s", id)
		}
	}
	re.Close()
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}
	re2 := open(t, dir, Options{})
	for _, id := range all {
		if _, ok := re2.Get(id); !ok {
			t.Fatalf("record %s unreadable after compaction + index loss", id)
		}
	}
}

// TestStoreServesGoldenV2Layout opens the checked-in v2 JSONL layout
// with today's defaults — the v2->v3 migration contract, mirroring the
// fabricated-directory v1 migration test with bytes frozen in git: the
// old store serves in place (no eager rewrite), and compaction is the
// explicit, lossless upgrade to v3.
func TestStoreServesGoldenV2Layout(t *testing.T) {
	dir := copyGoldenV2(t)
	s := open(t, dir, Options{Compact: true})
	if s.Len() != len(goldenV2IDs) {
		t.Fatalf("golden layout serves %d records, want %d", s.Len(), len(goldenV2IDs))
	}
	before := make(map[string]*campaign.Result)
	for _, id := range goldenV2IDs {
		got, ok := s.Get(id)
		if !ok {
			t.Fatalf("golden record %s unreadable", id)
		}
		before[id] = got
	}
	// Serving alone rewrites nothing: the layout is still pure v2.
	v2Segs, v3Segs := segmentsByExt(t, dir)
	if len(v2Segs) == 0 || len(v3Segs) != 0 {
		t.Fatalf("reading the golden rewrote segments: %d JSONL / %d TLV", len(v2Segs), len(v3Segs))
	}
	stats, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Live != len(goldenV2IDs) {
		t.Fatalf("Compact carried %d live records, want %d", stats.Live, len(goldenV2IDs))
	}
	v2After, v3After := segmentsByExt(t, dir)
	if len(v2After) != 0 || len(v3After) == 0 {
		t.Fatalf("compaction left %d JSONL / %d TLV segments, want 0 / >0", len(v2After), len(v3After))
	}
	for _, id := range goldenV2IDs {
		got, ok := s.Get(id)
		if !ok {
			t.Fatalf("golden record %s lost by the v3 transcode", id)
		}
		want := before[id]
		if got.MobileAll != want.MobileAll || got.Wired != want.Wired ||
			got.TotalMeasurements != want.TotalMeasurements || got.SummaryOnly != want.SummaryOnly {
			t.Fatalf("v3 transcode changed golden record %s", id)
		}
	}
}

// writeV1Record writes one record in the retired v1 layout: a single
// JSON file under records/<id>.json plus a v1 index line. Migration
// tests use it to fabricate old cache directories.
func writeV1Record(t *testing.T, dir, id string, res *campaign.Result, compact bool) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, recordsDirV1), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(record{V: FormatVersion, ID: id, Result: res.State(compact)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, recordsDirV1, id+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	idx, err := os.OpenFile(filepath.Join(dir, indexName),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if _, err := fmt.Fprintf(idx, `{"v":1,"id":%q}`+"\n", id); err != nil {
		t.Fatal(err)
	}
}

// TestStoreMigratesV1Layout opens a fabricated v1 directory and asserts
// the records fold into segments, serve identically, and the old layout
// disappears — idempotently across reopens.
func TestStoreMigratesV1Layout(t *testing.T) {
	dir := t.TempDir()
	full, err := campaign.Run(campaign.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	other, err := campaign.Run(campaign.Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	writeV1Record(t, dir, "aa1111", full, false)
	writeV1Record(t, dir, "bb2222", other, true)
	// A corrupt v1 record reads as a miss in v1; migration drops it.
	if err := os.WriteFile(filepath.Join(dir, recordsDirV1, "cc3333.json"),
		[]byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := open(t, dir, Options{})
	if _, err := os.Stat(filepath.Join(dir, recordsDirV1)); !os.IsNotExist(err) {
		t.Fatal("v1 records/ directory must be removed after migration")
	}
	got, ok := s.Get("aa1111")
	if !ok {
		t.Fatal("migrated full record unreadable")
	}
	if got.MobileAll != full.MobileAll || got.TotalMeasurements != full.TotalMeasurements {
		t.Fatal("migration changed the full record")
	}
	if got.SummaryOnly {
		t.Fatal("full v1 record migrated as summary-only")
	}
	gotC, ok := s.Get("bb2222")
	if !ok {
		t.Fatal("migrated compact record unreadable")
	}
	if !gotC.SummaryOnly || gotC.MobileAll != other.MobileAll {
		t.Fatal("migration changed the compact record")
	}
	if _, ok := s.Get("cc3333"); ok {
		t.Fatal("corrupt v1 record must stay a miss after migration")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after migration, want 2", s.Len())
	}
	s.Close()

	// Reopen: migration already happened, nothing changes.
	re := open(t, dir, Options{})
	if re.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", re.Len())
	}
	if _, ok := re.Get("aa1111"); !ok {
		t.Fatal("migrated record lost across reopen")
	}
}
