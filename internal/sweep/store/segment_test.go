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

// countSegments walks segments/ and returns how many pack files exist.
func countSegments(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(filepath.Join(dir, segmentsDir), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if _, ok := parseSegName(filepath.Base(p)); !d.IsDir() && ok {
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
		if _, err := os.Stat(filepath.Join(dir, segmentsDir, "ab", segName(i))); err != nil {
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

// goldenV2IDs are the records inside testdata/v2-layout, the checked-in
// golden v2 store no future code change may stop reading. Nothing
// writes v2 any more, so these bytes are frozen, never regenerated.
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

// v2Segments lists the JSONL segments left under dir's segments/.
func v2Segments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segmentsDir, "*", "*"+segSuffixJSONL))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// assertGoldenV2Served demands every golden record serves with exactly
// the state its v2 line holds. The golden records are summary-only, so
// the served result is re-captured in the mode the line was stored in.
func assertGoldenV2Served(t *testing.T, s *Store) {
	t.Helper()
	for _, p := range v2Segments(t, filepath.Join("testdata", "v2-layout")) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		if err := json.Unmarshal(bytes.TrimSuffix(data, []byte{'\n'}), &rec); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(rec.ID)
		if !ok {
			t.Fatalf("golden record %s unreadable", rec.ID)
		}
		want, _ := json.Marshal(rec.Result)
		if have, _ := json.Marshal(got.State(rec.Result.Compact)); !bytes.Equal(have, want) {
			t.Fatalf("golden record %s changed state", rec.ID)
		}
	}
}

// TestStoreServesGoldenV2Layout opens the checked-in v2 JSONL layout
// with today's defaults — the v2->v3 migration contract, mirroring the
// fabricated-directory v1 migration test with bytes frozen in git. Open
// transcodes each shard's JSONL segment into the TLV segment of the
// same number; every record keeps its state (a compact-mode Open strips
// nothing), across a reopen and a lost index alike.
func TestStoreServesGoldenV2Layout(t *testing.T) {
	dir := copyGoldenV2(t)
	s := open(t, dir, Options{Compact: true})
	if s.Len() != len(goldenV2IDs) {
		t.Fatalf("golden layout serves %d records, want %d", s.Len(), len(goldenV2IDs))
	}
	if left := v2Segments(t, dir); len(left) != 0 {
		t.Fatalf("Open left JSONL segments: %v", left)
	}
	for _, id := range goldenV2IDs {
		if _, err := os.Stat(s.segPath(shardOf(id), 0)); err != nil {
			t.Fatalf("shard of %s has no seg-0000.tlv: %v", id, err)
		}
	}
	if n := countSegments(t, dir); n != len(goldenV2IDs) {
		t.Fatalf("upgrade left %d segments, want one per shard", n)
	}
	assertGoldenV2Served(t, s)
	s.Close()

	re := open(t, dir, Options{Compact: true})
	assertGoldenV2Served(t, re)
	re.Close()
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}
	assertGoldenV2Served(t, open(t, dir, Options{Compact: true}))
}

// TestStoreUpgradedV2ReopenAndIndexLoss: an upgraded golden layout is
// an ordinary store. Appends land in the transcoded segments, and
// everything serves across a reopen, a lost index and a compaction.
func TestStoreUpgradedV2ReopenAndIndexLoss(t *testing.T) {
	dir := copyGoldenV2(t)
	s := open(t, dir, Options{})
	res := testResult(t, 5)
	tlvIDs := []string{"aa02", "cd33"}
	for _, id := range tlvIDs {
		if err := s.Put(id, res); err != nil {
			t.Fatal(err)
		}
	}
	if n := countSegments(t, dir); n != len(goldenV2IDs) {
		t.Fatalf("appends to an upgraded store made %d segments, want %d", n, len(goldenV2IDs))
	}
	s.Close()

	all := append(append([]string{}, goldenV2IDs...), tlvIDs...)
	serves := func(s *Store, when string) {
		t.Helper()
		assertGoldenV2Served(t, s)
		for _, id := range tlvIDs {
			got, ok := s.Get(id)
			if !ok || got.MobileAll != res.MobileAll || got.TotalMeasurements != res.TotalMeasurements {
				t.Fatalf("record %s lost or changed %s", id, when)
			}
		}
	}
	re := open(t, dir, Options{})
	serves(re, "across a reopen")
	re.Close()
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}
	re2 := open(t, dir, Options{})
	serves(re2, "after index loss")
	stats, err := re2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Live != len(all) {
		t.Fatalf("Compact carried %d live records, want %d", stats.Live, len(all))
	}
	serves(re2, "by compaction")
}

// TestStoreV2UpgradeCrashPoints interrupts the upgrade at each point a
// crash can stop it, on copies of the golden layout: the next Open
// must finish the job with the bytes a clean upgrade writes, and serve
// every golden record with unchanged state.
func TestStoreV2UpgradeCrashPoints(t *testing.T) {
	// The clean upgrade's segments are the reference bytes.
	ref := copyGoldenV2(t)
	open(t, ref, Options{}).Close()
	refSeg := func(shard string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(ref, segmentsDir, shard, segName(0)))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// upgradeShard leaves a shard as a crash after the rename and before
	// the unlink does; with unlink, as a crash after the unlink.
	upgradeShard := func(t *testing.T, dir, shard string, unlink bool) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, segmentsDir, shard, segName(0)), refSeg(shard), 0o644); err != nil {
			t.Fatal(err)
		}
		if unlink {
			if err := os.Remove(filepath.Join(dir, segmentsDir, shard, segPrefix+"0000"+segSuffixJSONL)); err != nil {
				t.Fatal(err)
			}
		}
	}
	extra := envelopeFrame("aa02", testResult(t, 6), true)

	cases := []struct {
		name  string
		crash func(t *testing.T, dir string)
		ids   []string // served beyond the golden records
	}{
		{name: "orphan temp, JSONL intact", crash: func(t *testing.T, dir string) {
			torn := refSeg("aa")
			if err := os.WriteFile(filepath.Join(dir, "put-upgrade-1.tmp"), torn[:len(torn)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "JSONL and TLV both present", crash: func(t *testing.T, dir string) {
			for _, id := range goldenV2IDs {
				upgradeShard(t, dir, shardOf(id), false)
			}
		}},
		{name: "half the shards upgraded under the v2 index", crash: func(t *testing.T, dir string) {
			upgradeShard(t, dir, "aa", true)
			upgradeShard(t, dir, "ab", false)
		}},
		{name: "all unlinked before a mixed index was written back", ids: []string{"aa02"}, crash: func(t *testing.T, dir string) {
			// A pre-upgrade store had appended aa02 after aa's JSONL
			// segment, so its index holds a TLV line beside the v2 ones.
			for _, id := range goldenV2IDs {
				upgradeShard(t, dir, shardOf(id), true)
			}
			if err := os.WriteFile(filepath.Join(dir, segmentsDir, "aa", segName(1)), extra, 0o644); err != nil {
				t.Fatal(err)
			}
			line := fmt.Sprintf(`{"v":%d,"id":"aa02","shard":"aa","seg":1,"off":0,"len":%d,"f":"tlv"}`+"\n", indexVersion, len(extra))
			idx, err := os.OpenFile(filepath.Join(dir, indexName), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			if _, err := idx.WriteString(line); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := copyGoldenV2(t)
			c.crash(t, dir)
			for _, reopen := range []string{"first open", "reopen"} {
				s := open(t, dir, Options{})
				if left := v2Segments(t, dir); len(left) != 0 {
					t.Fatalf("%s left JSONL segments: %v", reopen, left)
				}
				for _, id := range goldenV2IDs {
					got, err := os.ReadFile(s.segPath(shardOf(id), 0))
					if err != nil || !bytes.Equal(got, refSeg(shardOf(id))) {
						t.Fatalf("%s: shard %s differs from a clean upgrade (%v)", reopen, shardOf(id), err)
					}
				}
				assertGoldenV2Served(t, s)
				for _, id := range c.ids {
					if _, ok := s.Get(id); !ok {
						t.Fatalf("%s lost record %s", reopen, id)
					}
				}
				s.Close()
			}
		})
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
