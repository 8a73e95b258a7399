package store

// The property harness locks in the segmented store's one contract:
// every acknowledged Put is readable and byte-identical after any
// interleaving of puts, gets, reopens, compactions and crashes. A fuzz
// target explores op sequences coverage-guided (CI runs it as a short
// smoke); a deterministic property test replays seeded random
// interleavings on every plain `go test`.

import (
	"bytes"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sweep/tlv"
)

// fuzzResults are the payloads the harness stores, simulated once per
// process — campaigns are expensive and the harness cares about the
// store, not the simulator.
var (
	fuzzOnce    sync.Once
	fuzzResults []*campaign.Result
)

func payloads(t *testing.T) []*campaign.Result {
	t.Helper()
	fuzzOnce.Do(func() {
		for _, seed := range []uint64{1, 2} {
			res, err := campaign.Run(campaign.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			fuzzResults = append(fuzzResults, res)
		}
	})
	return fuzzResults
}

// fuzzIDs mixes content-hash-shaped ids (sharded by their own prefix,
// including two sharing the "aa" shard) with ids that fall through to
// the hashed-shard path.
var fuzzIDs = []string{"aa00", "aa11", "bc22", "ff33", "zz-fallback", "Q"}

// envelopeFrame is the exact TLV frame Put writes for a result, the
// byte string the property compares against.
func envelopeFrame(id string, res *campaign.Result, compact bool) []byte {
	st := res.State(compact)
	return tlv.AppendEnvelope(nil, id, &st)
}

// crashTail simulates a process dying mid-Put while the store is
// closed: a torn frame — the frame magic, the full payload length, then
// a cut-off payload — appended to one of the store's TLV segments. It
// reports whether there was a segment to tear.
func crashTail(t *testing.T, dir string, pick int) bool {
	t.Helper()
	var segs []string
	filepath.WalkDir(filepath.Join(dir, segmentsDir), func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if _, ok := parseSegName(d.Name()); ok {
			segs = append(segs, p)
		}
		return nil
	})
	if len(segs) == 0 {
		return false
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[pick%len(segs)], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frame := envelopeFrame("aatorn", payloads(t)[0], true)
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	return true
}

// runStoreOps replays one op sequence against a real store directory,
// keeping a model of every acknowledged record, and asserts the store
// never disagrees with the model — not on any Get, and not after the
// final reopen. It returns how many crashes it injected.
func runStoreOps(t *testing.T, ops []byte) (crashes int) {
	if len(ops) > 300 {
		ops = ops[:300]
	}
	results := payloads(t)
	dir := t.TempDir()
	compact := len(ops) > 0 && ops[0]&1 == 1
	opt := Options{Compact: compact, SegmentBytes: 2048}
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
	reopen := func() {
		st.Close()
		var err error
		st, err = Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
	}

	model := make(map[string][]byte)
	for _, b := range ops {
		id := fuzzIDs[int(b>>3)%len(fuzzIDs)]
		res := results[int(b>>6)%len(results)]
		switch b % 8 {
		case 0, 1, 2:
			if err := st.Put(id, res); err != nil {
				t.Fatalf("Put(%s): %v", id, err)
			}
			model[id] = envelopeFrame(id, res, compact)
		case 3, 4:
			got, ok := st.Get(id)
			want, has := model[id]
			if ok != has {
				t.Fatalf("Get(%s) = %t, model says %t", id, ok, has)
			}
			if ok && !bytes.Equal(envelopeFrame(id, got, compact), want) {
				t.Fatalf("Get(%s) returned bytes differing from the acknowledged Put", id)
			}
		case 5:
			reopen()
		case 6:
			st.Close()
			if crashTail(t, dir, int(b>>3)) {
				crashes++
			}
			reopen()
		case 7:
			if _, err := st.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
		}
	}

	// The closing property: reopen once more and replay the whole
	// model. Every acknowledged record must still be there, byte for
	// byte.
	reopen()
	ids := make([]string, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		got, ok := st.Get(id)
		if !ok {
			t.Fatalf("acknowledged record %s lost after final reopen", id)
		}
		if !bytes.Equal(envelopeFrame(id, got, compact), model[id]) {
			t.Fatalf("record %s no longer byte-identical after final reopen", id)
		}
	}
	if st.Len() != len(model) {
		t.Fatalf("Len = %d after final reopen, want %d", st.Len(), len(model))
	}
	return crashes
}

// FuzzStore is the coverage-guided entry point; CI runs it as a short
// -fuzztime smoke on top of the seeded corpus below.
func FuzzStore(f *testing.F) {
	f.Add([]byte{0})                                 // one put, full mode
	f.Add([]byte{1, 8, 16, 5, 3, 11})                // compact puts, reopen, gets
	f.Add([]byte{0, 8, 6, 3, 7, 3, 5, 3})            // put, crash, get, compact, get, reopen, get
	f.Add([]byte{2, 10, 18, 26, 34, 42, 7, 6, 7, 5}) // fill shards, double compact around a crash
	f.Add([]byte{0, 0, 8, 8, 5, 6, 7, 3, 4, 11, 12}) // supersede, reopen, crash, compact, read back
	f.Fuzz(func(t *testing.T, ops []byte) {
		runStoreOps(t, ops)
	})
}

// TestStoreRandomOpsProperty replays seeded random interleavings on
// every test run — the deterministic slice of the fuzz space.
func TestStoreRandomOpsProperty(t *testing.T) {
	crashes := 0
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 200)
		rng.Read(ops)
		t.Run(string(rune('A'+seed)), func(t *testing.T) {
			crashes += runStoreOps(t, ops)
		})
	}
	if crashes == 0 {
		t.Fatal("the seeded runs injected no crash: the harness tests nothing torn")
	}
	t.Logf("%d torn frames injected", crashes)
}
