package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// Options controls sweep execution.
type Options struct {
	// Workers bounds the number of scenarios simulated concurrently.
	// Zero or negative means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, is consulted before running a scenario and
	// updated after. Pass Shared to cooperate with the experiment
	// drivers, a fresh NewCache for an isolated sweep, or nil to force
	// every scenario to run.
	Cache *Cache
	// NeedRawSamples forces every scenario result to carry raw per-cell
	// samples, as a private copy: a summary-only cache hit (a compact
	// disk record) is treated as a miss and re-simulated (Want.Raw).
	// Set it when downstream consumers derive quantiles, CDFs or
	// histograms from the sweep; the default JSONL export and variant
	// aggregates need only moments, which every record mode preserves.
	// Without it, results served by Cache are shared and read-only.
	NeedRawSamples bool
	// Stages, when non-nil, receives per-stage timings (store read,
	// singleflight wait, and — through the cache's runner — admission
	// wait and simulation) for every scenario in the sweep. Stage
	// durations from concurrent workers accumulate into the same
	// observer, so implementations must be goroutine-safe; obs.Span
	// is. Timings feed metrics and traces only, never results.
	Stages obs.StageObserver
}

// ScenarioRun is one executed scenario.
type ScenarioRun struct {
	Scenario
	// Cached reports that the result was served from the cache.
	Cached bool
	// Result is shared and read-only when a Cache served it, unless
	// Options.NeedRawSamples asked for private copies.
	Result *campaign.Result
}

// Result is a completed sweep.
type Result struct {
	Grid Grid
	// Scenarios holds every run in grid order, independent of worker
	// scheduling.
	Scenarios []ScenarioRun
	// Variants aggregates replications per deployment, ordered by first
	// appearance in the grid.
	Variants []Variant
	// CacheHits and CacheMisses account for this run only.
	CacheHits, CacheMisses int
}

// Run expands the grid and executes every scenario on a bounded worker
// pool. Each scenario owns an isolated simulator seeded from its config,
// so results are independent of worker count and goroutine
// interleaving; the output (scenario order, aggregates, JSONL bytes) is
// byte-identical for any Workers value.
func Run(g Grid, opt Options) (*Result, error) {
	runs, err := execute(g, opt, nil)
	if err != nil {
		return nil, err
	}
	out := &Result{Grid: g, Scenarios: runs, Variants: aggregate(runs)}
	out.CacheHits, out.CacheMisses = countCached(runs)
	return out, nil
}

// RunEach is Run with a streaming hook and without the aggregates: emit
// is invoked once per scenario, in grid order, as soon as that scenario
// and all its predecessors have completed — workers keep simulating
// ahead while earlier scenarios stream out. It exists for serving
// layers that stream records over a connection: the emitted sequence is
// exactly Run's Result.Scenarios order, so a stream written
// record-by-record is byte-identical to WriteJSONL on Run's Result. It
// returns only the run's cache accounting; a streaming caller has
// already consumed every scenario, so nothing aggregates them.
//
// emit runs on the calling goroutine. An error it returns cancels the
// sweep and is returned; a scenario failure stops emission after the
// last cleanly completed prefix, so consumers always see a grid-order
// prefix, never a gap.
func RunEach(g Grid, opt Options, emit func(ScenarioRun) error) (hits, misses int, err error) {
	runs, err := execute(g, opt, emit)
	hits, misses = countCached(runs) // 0, 0 when runs is nil on error
	return hits, misses, err
}

// countCached splits a completed run into cache hits and misses.
func countCached(runs []ScenarioRun) (hits, misses int) {
	for _, r := range runs {
		if r.Cached {
			hits++
		}
	}
	return hits, len(runs) - hits
}

// execute expands the grid and runs every scenario on the worker pool,
// calling emit (when non-nil) in grid order as scenarios complete.
func execute(g Grid, opt Options, emit func(ScenarioRun) error) ([]ScenarioRun, error) {
	scenarios, err := g.Scenarios()
	if err != nil {
		return nil, err
	}
	if len(scenarios) == 0 {
		return nil, fmt.Errorf("sweep: empty grid")
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}

	runs := make([]ScenarioRun, len(scenarios))
	// Completion signalling exists only for the streaming hook; the
	// plain Run path skips the per-scenario channel allocations.
	var done []chan struct{}
	if emit != nil {
		done = make([]chan struct{}, len(scenarios))
		for i := range done {
			done[i] = make(chan struct{})
		}
	}
	idx := make(chan int, len(scenarios))
	for i := range scenarios {
		idx <- i
	}
	close(idx)

	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		errOnce sync.Once
		runErr  error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			runErr = err
			stop.Store(true)
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// done[i] closes whether the scenario ran, failed, or was
				// skipped after a stop — the emitter below distinguishes
				// by the nil-ness of runs[i].Result.
				if stop.Load() {
					if done != nil {
						close(done[i])
					}
					continue
				}
				sc := scenarios[i]
				var (
					res    *campaign.Result
					cached bool
					err    error
				)
				if opt.Cache != nil {
					// Through the cache's singleflight, so a scenario
					// this sweep misses while another sweep or an
					// experiment driver is already simulating it is
					// waited for, not simulated twice.
					res, cached, err = opt.Cache.resolve(sc.ID, sc.Config,
						Want{Raw: opt.NeedRawSamples, Stages: opt.Stages})
				} else {
					res, err = runCampaign(sc.Config)
				}
				if err != nil {
					fail(fmt.Errorf("sweep: scenario %d (%s): %w", sc.Index, sc.ID, err))
				} else {
					runs[i] = ScenarioRun{Scenario: sc, Cached: cached, Result: res}
				}
				if done != nil {
					close(done[i])
				}
			}
		}()
	}
	if emit != nil {
		for i := range runs {
			<-done[i]
			if runs[i].Result == nil {
				// Failed, or skipped after another scenario failed; the
				// cause is (or will be) in runErr.
				break
			}
			if err := emit(runs[i]); err != nil {
				fail(fmt.Errorf("sweep: emit scenario %d (%s): %w", runs[i].Index, runs[i].ID, err))
				break
			}
		}
	}
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	return runs, nil
}
