package sweep_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sweep"
	"repro/internal/sweep/store"
)

// persistGrid is small enough to run in tests but exercises
// replications, both recommendation axes, and variant aggregation.
var persistGrid = sweep.Grid{
	Seeds:   []uint64{1, 2},
	EdgeUPF: []bool{false, true},
}

// TestSweepResumesFromDiskAcrossRestart is the tentpole's core
// contract: run a sweep, throw the process state away, re-run against
// the same cache directory — zero campaigns execute and the JSONL comes
// out byte-identical.
func TestSweepResumesFromDiskAcrossRestart(t *testing.T) {
	for _, mode := range []struct {
		name    string
		compact bool
	}{{"full", false}, {"compact", true}} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{Compact: mode.compact})
			if err != nil {
				t.Fatal(err)
			}
			first, err := sweep.Run(persistGrid, sweep.Options{Workers: 2, Cache: sweep.NewPersistentCache(st)})
			if err != nil {
				t.Fatal(err)
			}
			firstJSONL, err := first.ExportJSONL()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			// "Restart": new store handle, new in-memory cache, and a
			// campaign counter proving nothing re-simulates.
			runs := sweep.CountRuns(t)
			st2, err := store.Open(dir, store.Options{Compact: mode.compact})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			second, err := sweep.Run(persistGrid, sweep.Options{Workers: 2, Cache: sweep.NewPersistentCache(st2)})
			if err != nil {
				t.Fatal(err)
			}
			if runs.Load() != 0 {
				t.Fatalf("warm run re-simulated %d campaigns, want 0", runs.Load())
			}
			if second.CacheMisses != 0 || second.CacheHits != len(second.Scenarios) {
				t.Fatalf("warm run hits/misses = %d/%d, want %d/0",
					second.CacheHits, second.CacheMisses, len(second.Scenarios))
			}
			secondJSONL, err := second.ExportJSONL()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(firstJSONL, secondJSONL) {
				t.Fatal("JSONL is not byte-identical across a restart")
			}
			// Persistence is lossless all the way into the aggregates:
			// merged variants and deltas match exactly, not just within
			// tolerance.
			if !reflect.DeepEqual(first.Variants, second.Variants) {
				t.Fatal("variant aggregates differ across a restart")
			}
			if !reflect.DeepEqual(first.Deltas(), second.Deltas()) {
				t.Fatal("recommendation deltas differ across a restart")
			}
		})
	}
}

// findSegmentOf locates the pack segment holding a scenario's record,
// via the id bytes themselves — a content-hash id appears verbatim in
// both encodings (quoted in the v2 JSON envelope, as a raw TLV string
// in v3) and in nothing else — so tests can damage precise files
// without reaching into store internals.
func findSegmentOf(t *testing.T, dir, id string) string {
	t.Helper()
	needle := []byte(id)
	var found string
	err := filepath.WalkDir(filepath.Join(dir, "segments"), func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if bytes.Contains(data, needle) {
			found = p
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == "" {
		t.Fatalf("no segment holds scenario %s", id)
	}
	return found
}

// TestSweepHealsCorruptedCacheRecords injects corruption into a warm
// cache directory and asserts the sweep quietly re-simulates only the
// damaged scenario — corruption costs time, never correctness.
func TestSweepHealsCorruptedCacheRecords(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes 1 rotates after every record, so each scenario gets
	// its own segment file and damage stays surgical.
	opt := store.Options{SegmentBytes: 1}
	st, err := store.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sweep.Run(persistGrid, sweep.Options{Workers: 2, Cache: sweep.NewPersistentCache(st)})
	if err != nil {
		t.Fatal(err)
	}
	firstJSONL, err := first.ExportJSONL()
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Truncate one record and garble another: two scenarios damaged.
	victims := []string{first.Scenarios[0].ID, first.Scenarios[2].ID}
	trunc := findSegmentOf(t, dir, victims[0])
	data, err := os.ReadFile(trunc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trunc, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(findSegmentOf(t, dir, victims[1]),
		[]byte("no longer json"), 0o644); err != nil {
		t.Fatal(err)
	}

	runs := sweep.CountRuns(t)
	st2, err := store.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sweep.Run(persistGrid, sweep.Options{Workers: 2, Cache: sweep.NewPersistentCache(st2)})
	if err != nil {
		t.Fatalf("corrupted cache must never fail the sweep: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != int64(len(victims)) {
		t.Fatalf("re-simulated %d campaigns, want exactly the %d damaged ones",
			runs.Load(), len(victims))
	}
	if second.CacheMisses != len(victims) {
		t.Fatalf("misses = %d, want %d", second.CacheMisses, len(victims))
	}
	secondJSONL, err := second.ExportJSONL()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(firstJSONL, secondJSONL) {
		t.Fatal("healed sweep JSONL differs from the original")
	}

	// The re-run rewrote the damaged records: a third pass is all hits.
	st3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	third, err := sweep.Run(persistGrid, sweep.Options{Workers: 2, Cache: sweep.NewPersistentCache(st3)})
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheMisses != 0 {
		t.Fatalf("healed store still missed %d scenarios", third.CacheMisses)
	}
}
