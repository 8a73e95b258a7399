package sweep_test

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sweep"
	"repro/internal/sweep/tlv"
)

// TestSharedResultConcurrentReaders is the race hammer for the shared,
// read-only contract (run it under -race): eight goroutines resolve one
// scenario and build its record, TLV frame and variant aggregate from
// the shared result while a raw caller sorts and extends its private
// copy. Afterwards the cached entry's serialized state is unchanged.
func TestSharedResultConcurrentReaders(t *testing.T) {
	cache := sweep.NewCache()
	cfg := campaign.Config{Seed: 11}
	sc := sweep.ScenarioOf(cfg)
	shared, _, err := cache.Resolve(sc, sweep.Want{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := json.Marshal(shared.State(false))
	if err != nil {
		t.Fatal(err)
	}
	wantFrame := func() []byte {
		rec := sweep.RecordOf(sweep.ScenarioRun{Scenario: sc, Result: shared})
		return tlv.AppendRecord(nil, &rec)
	}()

	const readers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := 0; k < 20; k++ {
				res, cached, err := cache.Resolve(sc, sweep.Want{})
				if err != nil || !cached {
					t.Errorf("Resolve: cached=%v err=%v, want a hit", cached, err)
					return
				}
				run := sweep.ScenarioRun{Scenario: sc, Cached: true, Result: res}
				rec := sweep.RecordOf(run)
				if frame := tlv.AppendRecord(nil, &rec); !bytes.Equal(frame, wantFrame) {
					t.Error("a concurrent reader encoded different record bytes")
					return
				}
				if vs := sweep.Aggregate([]sweep.ScenarioRun{run}); len(vs) != 1 {
					t.Errorf("aggregate built %d variants, want 1", len(vs))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for k := 0; k < 20; k++ {
			raw, _, err := cache.Resolve(sc, sweep.Want{Raw: true})
			if err != nil {
				t.Error(err)
				return
			}
			for _, s := range raw.Samples {
				s.Quantile(0.99)
				s.Add(1e6)
			}
		}
	}()
	close(start)
	wg.Wait()

	after, err := json.Marshal(shared.State(false))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("concurrent readers and a raw caller changed the shared entry")
	}
}
