package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/sweep/tlv"
)

func testResult(t *testing.T, seed uint64) *campaign.Result {
	t.Helper()
	res, err := campaign.Run(campaign.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func open(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStorePutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	res := testResult(t, 5)

	s := open(t, dir, Options{})
	if err := s.Put("abc123", res); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	got, ok := s.Get("abc123")
	if !ok {
		t.Fatal("stored record must be readable")
	}
	if got.MobileAll != res.MobileAll || got.Wired != res.Wired {
		t.Fatal("round-trip changed the summaries")
	}

	// Reopen — the restart path — and read again.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := open(t, dir, Options{})
	if re.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", re.Len())
	}
	again, ok := re.Get("abc123")
	if !ok {
		t.Fatal("record lost across reopen")
	}
	if again.MobileAll != res.MobileAll || again.TotalMeasurements != res.TotalMeasurements {
		t.Fatal("reopened round-trip changed the result")
	}
	if _, ok := re.Get("missing"); ok {
		t.Fatal("absent id must miss")
	}
}

func TestStoreSurvivesIndexLoss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put("deadbeef", testResult(t, 5)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, "index.jsonl")); err != nil {
		t.Fatal(err)
	}
	re := open(t, dir, Options{})
	if _, ok := re.Get("deadbeef"); !ok {
		t.Fatal("record rescan must recover entries after index loss")
	}
	re.Close()
	// The rescan writes the index back, so the next Open — which trusts
	// a readable index — still sees every record.
	re2 := open(t, dir, Options{})
	if _, ok := re2.Get("deadbeef"); !ok {
		t.Fatal("rebuilt index hides committed records on the second reopen")
	}
	// An index truncated to zero bytes must also trigger the rescan.
	re2.Close()
	if err := os.Truncate(filepath.Join(dir, "index.jsonl"), 0); err != nil {
		t.Fatal(err)
	}
	re3 := open(t, dir, Options{})
	if _, ok := re3.Get("deadbeef"); !ok {
		t.Fatal("empty index must fall back to the records rescan")
	}
}

func TestStoreToleratesGarbledIndex(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put("cafe01", testResult(t, 5)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	idx := filepath.Join(dir, "index.jsonl")
	if err := os.WriteFile(idx, []byte("{\"v\":1,\"id\":\"cafe01\"}\nnot json at all\n\x00\x01\x02\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	re := open(t, dir, Options{})
	if _, ok := re.Get("cafe01"); !ok {
		t.Fatal("valid record must survive a partially garbled index")
	}
}

// findRecordLine locates the segment file holding an id's record and
// the byte offset where its bytes start, via the id itself — a
// content-hash id appears verbatim in its TLV frame, as a raw string,
// and in nothing else. Tests
// use it to inject corruption at precise spots without reaching into
// store internals.
func findRecordLine(t *testing.T, dir, id string) (path string, off int64) {
	t.Helper()
	needle := []byte(id)
	var found string
	var foundOff int64 = -1
	err := filepath.WalkDir(filepath.Join(dir, segmentsDir), func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if _, ok := parseSegName(filepath.Base(p)); !ok {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if i := bytes.Index(data, needle); i >= 0 {
			found, foundOff = p, int64(i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if foundOff < 0 {
		t.Fatalf("no segment holds record %q", id)
	}
	return found, foundOff
}

func TestStoreSkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	res := testResult(t, 5)
	// SegmentBytes 1 rotates after every append: each record lands in
	// its own segment, so corruption can be injected per record.
	opt := Options{SegmentBytes: 1}
	s := open(t, dir, opt)
	for _, id := range []string{"aa-truncated", "bb-garbled", "cc-intact"} {
		if err := s.Put(id, res); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Truncate one record mid-line (bit rot / lost tail).
	p, _ := findRecordLine(t, dir, "aa-truncated")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Garble another's whole segment outright.
	p2, _ := findRecordLine(t, dir, "bb-garbled")
	if err := os.WriteFile(p2, []byte("\x7fELF not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	re := open(t, dir, opt)
	for _, id := range []string{"aa-truncated", "bb-garbled"} {
		if _, ok := re.Get(id); ok {
			t.Fatalf("corrupt record %q must read as a miss", id)
		}
	}
	if _, ok := re.Get("cc-intact"); !ok {
		t.Fatal("intact record must still be served")
	}
	// A miss on corruption forgets the slot so a re-run rewrites it.
	if err := re.Put("bb-garbled", res); err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Get("bb-garbled"); !ok {
		t.Fatal("rewritten record must be served again")
	}
}

// TestStoreRebuildSkipsWrongVersionAndMismatchedLines drives the v2
// upgrade over hand-crafted legacy segment content: future-version
// lines and lines whose id does not shard where they sit must not be
// carried into the transcoded segment, and a full record stays full
// under a compact-mode open.
func TestStoreRebuildSkipsWrongVersionAndMismatchedLines(t *testing.T) {
	dir := copyGoldenV2(t)

	// Append a future-version line, a line belonging to another shard
	// and a full (raw-sample) record to ab11's v2 segment. (The TLV twin
	// is TestStoreRescanSkipsForeignTLVFrames.)
	p := filepath.Join(dir, segmentsDir, "ab", segPrefix+"0000"+segSuffixJSONL)
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fullState := testResult(t, 5).State(false)
	full, err := json.Marshal(record{V: FormatVersion, ID: "ab99", Result: fullState})
	if err != nil {
		t.Fatal(err)
	}
	future := fmt.Sprintf(`{"v":%d,"id":"abfuture","result":{}}`, FormatVersion+1)
	if _, err := f.WriteString(future + "\n" + `{"v":1,"id":"ff9999","result":{}}` + "\n" + string(full) + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := open(t, dir, Options{Compact: true})
	if _, ok := re.Get("abfuture"); ok {
		t.Fatal("future-version line must not be indexed")
	}
	if _, ok := re.Get("ff9999"); ok {
		t.Fatal("line sharded under the wrong prefix must not be indexed")
	}
	if _, ok := re.Get("ab11"); !ok {
		t.Fatal("valid record must survive the upgrade")
	}
	got, ok := re.Get("ab99")
	if !ok || got.SummaryOnly {
		t.Fatal("full v2 record must survive the upgrade with its raw samples")
	}
	want, _ := json.Marshal(fullState)
	if have, _ := json.Marshal(got.State(false)); !bytes.Equal(have, want) {
		t.Fatal("upgrade changed the full v2 record")
	}
	data, err := os.ReadFile(re.segPath("ab", 0))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("abfuture")) || bytes.Contains(data, []byte("ff9999")) {
		t.Fatal("upgrade carried a skipped line into the TLV segment")
	}
}

// TestStoreRescanSkipsForeignTLVFrames is the TLV twin of
// TestStoreRebuildSkipsWrongVersionAndMismatchedLines: structurally
// valid frames whose envelope version is foreign or whose id shards
// elsewhere must not be indexed by the rescan, and raw garbage between
// frames is resynchronized over.
func TestStoreRescanSkipsForeignTLVFrames(t *testing.T) {
	dir := t.TempDir()
	res := testResult(t, 5)
	s := open(t, dir, Options{})
	if err := s.Put("ab1234", res); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Craft the injections: a valid frame misfiled under the wrong
	// shard, a frame with a bumped envelope version, and magicless
	// garbage. AppendEnvelopePayload leads with the version field
	// (field uvarint, length uvarint, value byte), so the version byte
	// sits at offset 2; AppendFrame recomputes the CRC over the
	// tampered payload, keeping the frame structurally valid.
	st := res.State(false)
	misfiled := tlv.AppendEnvelope(nil, "ff9999", &st)
	future := tlv.AppendEnvelopePayload(nil, "abfuture", &st)
	if future[2] != tlv.RecordVersion {
		t.Fatalf("envelope layout changed: version byte = %d, want %d", future[2], tlv.RecordVersion)
	}
	future[2] = tlv.RecordVersion + 1

	p, _ := findRecordLine(t, dir, "ab1234")
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range [][]byte{
		[]byte("crash debris with no frame magic\n"),
		misfiled,
		tlv.AppendFrame(nil, future),
	} {
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}

	re := open(t, dir, Options{})
	if _, ok := re.Get("ff9999"); ok {
		t.Fatal("frame sharded under the wrong prefix must not be indexed")
	}
	if _, ok := re.Get("abfuture"); ok {
		t.Fatal("future-version envelope must not be indexed")
	}
	if _, ok := re.Get("ab1234"); !ok {
		t.Fatal("valid record must survive the rescan")
	}
	// The shard still accepts appends after the garbage: TLV scanners
	// resync on frame magic, so the dead bytes stay dead.
	if err := re.Put("ab9z9z", res); err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Get("ab9z9z"); !ok {
		t.Fatal("append after injected garbage unreadable")
	}
}

// onlyFrame decodes the single TLV record a fresh store directory holds.
func onlyFrame(t *testing.T, dir, id string) ([]byte, campaign.ResultState) {
	t.Helper()
	p, _ := findRecordLine(t, dir, id)
	frame, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	payload, n, err := tlv.ParseFrame(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("segment %s is not one TLV frame: %v", p, err)
	}
	gotID, st, err := tlv.DecodeEnvelopePayload(payload)
	if err != nil || gotID != id {
		t.Fatalf("envelope decode: id %q, %v", gotID, err)
	}
	return frame, st
}

func TestStoreCompactRecordsHoldNoRawSamples(t *testing.T) {
	res := testResult(t, 5)
	s := open(t, t.TempDir(), Options{Compact: true})
	if err := s.Put("c0ffee", res); err != nil {
		t.Fatal(err)
	}
	compact, st := onlyFrame(t, s.Dir(), "c0ffee")
	for _, c := range st.Cells {
		if len(c.Samples) > 0 {
			t.Fatalf("compact record carries %d raw samples for cell %s", len(c.Samples), c.Cell)
		}
	}
	full := open(t, t.TempDir(), Options{})
	if err := full.Put("c0ffee", res); err != nil {
		t.Fatal(err)
	}
	fullFrame, fst := onlyFrame(t, full.Dir(), "c0ffee")
	samples := 0
	for _, c := range fst.Cells {
		samples += len(c.Samples)
	}
	if samples == 0 {
		t.Fatal("full record should carry raw samples")
	}
	if len(compact) >= len(fullFrame)/10 {
		t.Fatalf("compact record is %d bytes vs %d full — expected >10x shrink",
			len(compact), len(fullFrame))
	}
	// A compact record restores with its moments intact.
	got, ok := s.Get("c0ffee")
	if !ok {
		t.Fatal("compact record must restore")
	}
	if got.MobileAll != res.MobileAll {
		t.Fatal("compact restore changed the headline summary")
	}
}

func TestStoreRejectsPathEscapingIDs(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	res := testResult(t, 5)
	for _, id := range []string{"", "../evil", "a/b", `a\b`, "dot.dot"} {
		if err := s.Put(id, res); err == nil {
			t.Fatalf("id %q must be rejected", id)
		}
		if _, ok := s.Get(id); ok {
			t.Fatalf("id %q must miss", id)
		}
	}
}

func TestStoreLeavesNoTempDebris(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put("aa11", testResult(t, 5)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind after Put", e.Name())
		}
	}
}

func TestStoreSweepsOrphanedTempFilesAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put("aa11", testResult(t, 5)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// A crash mid-Put leaves a temp file behind; reopening must sweep
	// old ones but leave fresh ones alone — a process sharing the
	// directory may be mid-Put right now.
	orphan := filepath.Join(dir, "put-orphan123.tmp")
	if err := os.WriteFile(orphan, []byte("half a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(orphan, past, past); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "put-inflight456.tmp")
	if err := os.WriteFile(fresh, []byte("another writer"), 0o644); err != nil {
		t.Fatal(err)
	}
	re := open(t, dir, Options{})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("stale orphaned temp file survived Open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatal("fresh temp file (possible live writer) must not be swept")
	}
	if _, ok := re.Get("aa11"); !ok {
		t.Fatal("sweeping temps must not touch committed records")
	}
}

func TestStorePhantomIndexEntryDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put("aa11", testResult(t, 5)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate index entries that outlived their bytes: one pointing
	// past the end of a real segment, one pointing into a segment that
	// does not exist.
	idx, err := os.OpenFile(filepath.Join(dir, "index.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// The third line advertises a multi-exabyte record: the length must
	// be rejected against the real file size, never allocated.
	phantoms := `{"v":2,"id":"aaphantom","shard":"aa","seg":0,"off":1048576,"len":64}` + "\n" +
		`{"v":2,"id":"ee77","shard":"ee","seg":3,"off":0,"len":64}` + "\n" +
		`{"v":2,"id":"aahuge","shard":"aa","seg":0,"off":0,"len":4611686018427387904}` + "\n"
	if _, err := idx.WriteString(phantoms); err != nil {
		t.Fatal(err)
	}
	idx.Close()
	re := open(t, dir, Options{})
	for _, id := range []string{"aaphantom", "ee77", "aahuge"} {
		if _, ok := re.Get(id); ok {
			t.Fatalf("phantom index entry %q must read as a miss", id)
		}
	}
	if _, ok := re.Get("aa11"); !ok {
		t.Fatal("real record must still be served")
	}
	// The miss forgot the phantom; a Put rewrites it for real.
	if err := re.Put("aaphantom", testResult(t, 5)); err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Get("aaphantom"); !ok {
		t.Fatal("rewritten phantom must be served")
	}
}

// TestStoreLocksDirectory: one Store per directory. A second Open while
// the first is live fails fast, naming the directory; after Close the
// directory opens again.
func TestStoreLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if s.lock == nil {
		t.Skip("no directory locking on this platform")
	}
	if second, err := Open(dir, Options{}); err == nil {
		second.Close()
		t.Fatal("second Open of a live directory succeeded")
	} else if !strings.Contains(err.Error(), dir) {
		t.Fatalf("lock error %q does not name the directory", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	open(t, dir, Options{})
}

// TestStorePutAfterCloseFails: a Put racing past Close must fail rather
// than acknowledge a record, reopen a tail handle nothing closes, and
// skip the index line the next Open needs to find it.
func TestStorePutAfterCloseFails(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("abc123", testResult(t, 5)); !errors.Is(err, errClosed) {
		t.Fatalf("Put after Close = %v, want %v", err, errClosed)
	}
	for shard, ss := range s.shards {
		if ss.tail != nil {
			t.Fatalf("Put after Close opened a tail handle for shard %s", shard)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestStoreRestoredResultRoundTripsByteIdentically: Get restores a
// record over the decoder's own sample slices, and putting that
// restored result again must write the very same frame, full or
// compact.
func TestStoreRestoredResultRoundTripsByteIdentically(t *testing.T) {
	res := testResult(t, 7)
	for _, compact := range []bool{false, true} {
		first := open(t, t.TempDir(), Options{Compact: compact})
		if err := first.Put("d00d01", res); err != nil {
			t.Fatal(err)
		}
		want, _ := onlyFrame(t, first.Dir(), "d00d01")
		got, ok := first.Get("d00d01")
		if !ok {
			t.Fatalf("compact=%t: record must restore", compact)
		}
		second := open(t, t.TempDir(), Options{Compact: compact})
		if err := second.Put("d00d01", got); err != nil {
			t.Fatal(err)
		}
		if again, _ := onlyFrame(t, second.Dir(), "d00d01"); !bytes.Equal(again, want) {
			t.Fatalf("compact=%t: a restored result re-encodes to different bytes", compact)
		}
		if again, ok := second.Get("d00d01"); !ok || again.MobileAll != res.MobileAll {
			t.Fatalf("compact=%t: second round trip lost the record", compact)
		}
	}
}
