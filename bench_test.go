package sixgedge

// The benchmark harness: one benchmark per paper artefact (each bench
// regenerates the corresponding table/figure and reports its headline
// metric as a custom unit), plus micro-benchmarks for the substrates the
// artefacts are built from. Run with:
//
//	go test -bench=. -benchmem
import (
	"fmt"
	"testing"
	"time"

	"repro/internal/argame"
	"repro/internal/campaign"
	"repro/internal/corenet"
	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/oran"
	"repro/internal/probe"
	"repro/internal/ran"
	"repro/internal/recommend"
	"repro/internal/routing"
	"repro/internal/slicing"
	"repro/internal/sweep"
	"repro/internal/sweep/store"
	"repro/internal/topo"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- one benchmark per paper artefact --------------------------------------

// BenchmarkFig1GridSegmentation regenerates the Figure 1 traversal plan.
func BenchmarkFig1GridSegmentation(b *testing.B) {
	g := geo.NewKlagenfurtGrid()
	m := geo.NewKlagenfurtDensity(g)
	var n int
	for i := 0; i < b.N; i++ {
		n = len(m.TraversalCells())
	}
	b.ReportMetric(float64(n), "cells")
}

// BenchmarkFig2MeanRTL regenerates the Figure 2 campaign and reports the
// measured extremes.
func BenchmarkFig2MeanRTL(b *testing.B) {
	var res *campaign.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = campaign.Run(campaign.Config{Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MinMean.MeanMs, "min-ms")
	b.ReportMetric(res.MaxMean.MeanMs, "max-ms")
	b.ReportMetric(res.MobileVsWiredFactor(), "factor")
}

// BenchmarkFig3StdDev reports the dispersion extremes of the campaign.
func BenchmarkFig3StdDev(b *testing.B) {
	var res *campaign.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = campaign.Run(campaign.Config{Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MinStd.StdMs, "min-std-ms")
	b.ReportMetric(res.MaxStd.StdMs, "max-std-ms")
}

// BenchmarkTable1Traceroute regenerates the ten-hop local-service trace.
func BenchmarkTable1Traceroute(b *testing.B) {
	ce := topo.BuildCentralEurope()
	up := corenet.NewUserPlane(ce)
	eng := probe.NewEngine(up, ran.Profile5G)
	grid := geo.NewKlagenfurtGrid()
	density := geo.NewKlagenfurtDensity(grid)
	c2, _ := geo.ParseCellID("C2")
	cond := ran.Conditions{Load: density.LoadFactor(c2), SiteKm: geo.NearestSiteKm(grid, c2)}
	rng := des.NewRNG(1)
	b.ResetTimer()
	var tr probe.Trace
	var err error
	for i := 0; i < b.N; i++ {
		tr, err = eng.Traceroute(rng, cond, up.Central, ce.ProbeUni)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Hops)-1), "ip-hops")
	b.ReportMetric(tr.DistKm, "km")
}

// BenchmarkRequirementsAnalysis checks the Section III catalogue against
// a measured latency.
func BenchmarkRequirementsAnalysis(b *testing.B) {
	art, err := RunExperiment("requirements", 1)
	if err != nil {
		b.Fatal(err)
	}
	_ = art
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("requirements", uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGapAnalysis regenerates the Section IV-C decomposition.
func BenchmarkGapAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("gap", 42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeeringOptimization regenerates the Section V-A comparison.
func BenchmarkPeeringOptimization(b *testing.B) {
	var rep recommend.PeeringReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = recommend.EvaluatePeering()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ms(rep.BaselineRTT), "baseline-ms")
	b.ReportMetric(ms(rep.PeeredRTT), "peered-ms")
}

// BenchmarkUPFIntegration regenerates the Section V-B comparison.
func BenchmarkUPFIntegration(b *testing.B) {
	var rep recommend.UPFReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = recommend.EvaluateUPF(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ms(rep.Rows[0].MeanRTT), "central-ms")
	b.ReportMetric(ms(rep.Rows[1].MeanRTT), "edge-ms")
}

// BenchmarkSmartNICUPF measures the two datapaths' packet processing.
func BenchmarkSmartNICUPF(b *testing.B) {
	b.Run("host", func(b *testing.B) {
		var l time.Duration
		for i := 0; i < b.N; i++ {
			l = corenet.HostDatapath.Latency(0.8)
		}
		b.ReportMetric(float64(l)/1000, "us-per-pkt")
	})
	b.Run("smartnic", func(b *testing.B) {
		var l time.Duration
		for i := 0; i < b.N; i++ {
			l = corenet.SmartNICDatapath.Latency(0.8)
		}
		b.ReportMetric(float64(l)/1000, "us-per-pkt")
	})
}

// BenchmarkControlPlane regenerates the Section V-C architecture table.
func BenchmarkControlPlane(b *testing.B) {
	ce := topo.BuildCentralEurope()
	for _, arch := range oran.Architectures {
		arch := arch
		b.Run(arch.String(), func(b *testing.B) {
			cp, err := oran.NewControlPlane(ce, arch)
			if err != nil {
				b.Fatal(err)
			}
			var l time.Duration
			for i := 0; i < b.N; i++ {
				l = cp.Latency(oran.ProcHandover)
			}
			b.ReportMetric(ms(l), "handover-ms")
		})
	}
}

// BenchmarkARGameQoE regenerates the Section IV-A QoE ladder.
func BenchmarkARGameQoE(b *testing.B) {
	for _, d := range argame.Deployments {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			var rep argame.Report
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = argame.Run(argame.Config{
					Seed: uint64(i), Deployment: d, Duration: 10 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*rep.DeadlineHitRate, "pct-in-budget")
			b.ReportMetric(ms(rep.MeanM2P), "m2p-ms")
		})
	}
}

// BenchmarkScalability regenerates the Section III-C envelope.
func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("scalability", uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCapacity regenerates the Section III-B envelope.
func BenchmarkCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("capacity", uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---------------------------------------------

// BenchmarkPolicyRoute measures one route computed from the graph:
// the AS-level propagation and the intra-AS Dijkstra searches.
func BenchmarkPolicyRoute(b *testing.B) {
	ce := topo.BuildCentralEurope()
	pr := routing.NewPolicyRouter(ce.Net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.Route(ce.UPFVienna, ce.ProbeUni); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShortestDelay(b *testing.B) {
	ce := topo.BuildCentralEurope()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.ShortestDelay(ce.Net, ce.WiredKlu, ce.ProbeUni); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRadioSample(b *testing.B) {
	rng := des.NewRNG(1)
	cond := ran.Conditions{Load: 0.7, SiteKm: 1.2}
	for i := 0; i < b.N; i++ {
		ran.Profile5G.SampleRTT(rng, cond)
	}
}

func BenchmarkDESEventThroughput(b *testing.B) {
	sim := des.NewSimulator(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			sim.ScheduleAt(sim.Now()+time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	sim.ScheduleAt(0, tick)
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkQoSRuleLookup(b *testing.B) {
	rules := make([]oran.Rule, 2000)
	for i := range rules {
		rules[i] = oran.Rule{FlowID: i, UEID: i / 4}
	}
	b.Run("static", func(b *testing.B) {
		tbl := oran.NewRuleTable(rules, false)
		for i := 0; i < b.N; i++ {
			tbl.Lookup(1900)
		}
	})
	b.Run("context-aware", func(b *testing.B) {
		tbl := oran.NewRuleTable(rules, true)
		for i := 0; i < b.N; i++ {
			tbl.Lookup(1900)
		}
	})
}

func BenchmarkHypervisorPlacement(b *testing.B) {
	var sites []slicing.Site
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			sites = append(sites, slicing.Site{X: float64(x), Y: float64(y), Demand: 1})
		}
	}
	for _, s := range []slicing.Strategy{slicing.StrategyLatency, slicing.StrategyResilience, slicing.StrategyLoadBalance} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := slicing.Place(sites, 4, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweep runs a 64-scenario grid (16 seeds x local peering x
// UPF placement) serially and on a 4-worker pool, uncached so every
// scenario simulates. The ratio of the two tracks the parallel speedup
// across PRs; results are identical at both worker counts.
func BenchmarkSweep(b *testing.B) {
	seeds := make([]uint64, 16)
	for i := range seeds {
		seeds[i] = uint64(i) + 1
	}
	grid := sweep.Grid{
		Seeds:        seeds,
		LocalPeering: []bool{false, true},
		EdgeUPF:      []bool{false, true},
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var res *sweep.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = sweep.Run(grid, sweep.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Scenarios)), "scenarios")
			b.ReportMetric(float64(len(res.Variants)), "variants")
		})
	}
}

// BenchmarkSweepCached measures a fully warm sweep: the second pass over
// a grid whose scenarios are all in the content-hash cache.
func BenchmarkSweepCached(b *testing.B) {
	grid := sweep.Grid{
		Seeds:        []uint64{1, 2, 3, 4},
		LocalPeering: []bool{false, true},
		EdgeUPF:      []bool{false, true},
	}
	cache := sweep.NewCache()
	if _, err := sweep.Run(grid, sweep.Options{Workers: 4, Cache: cache}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(grid, sweep.Options{Workers: 4, Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		if res.CacheHits != len(res.Scenarios) {
			b.Fatal("warm sweep missed the cache")
		}
	}
}

// BenchmarkSweepDiskWarm measures a sweep served entirely from the
// on-disk store through a cold in-memory cache — the process-restart
// path — in both record modes. The gap between this and
// BenchmarkSweepCached is the cost of record decode + result restore.
func BenchmarkSweepDiskWarm(b *testing.B) {
	grid := sweep.Grid{
		Seeds:        []uint64{1, 2, 3, 4},
		LocalPeering: []bool{false, true},
		EdgeUPF:      []bool{false, true},
	}
	for _, mode := range []struct {
		name    string
		compact bool
	}{{"full", false}, {"compact", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			st, err := store.Open(b.TempDir(), store.Options{Compact: mode.compact})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if _, err := sweep.Run(grid, sweep.Options{Workers: 4,
				Cache: sweep.NewPersistentCache(st)}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sweep.Run(grid, sweep.Options{Workers: 4,
					Cache: sweep.NewPersistentCache(st)})
				if err != nil {
					b.Fatal(err)
				}
				if res.CacheMisses != 0 {
					b.Fatal("disk-warm sweep re-simulated a scenario")
				}
			}
		})
	}
}

// BenchmarkStorePutGet measures raw record persistence: one campaign
// result encoded + atomically committed, then decoded + restored, per
// record mode.
func BenchmarkStorePutGet(b *testing.B) {
	res, err := campaign.Run(campaign.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		compact bool
	}{{"full", false}, {"compact", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			st, err := store.Open(b.TempDir(), store.Options{Compact: mode.compact})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Put("bench", res); err != nil {
					b.Fatal(err)
				}
				if _, ok := st.Get("bench"); !ok {
					b.Fatal("stored record unreadable")
				}
			}
		})
	}
}

func BenchmarkCampaignFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Run(campaign.Config{Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignSmall runs the scenario shape of a benchmark cold
// miss (cmd/sweepbench's small config): one mobile node, one wired
// round, probes in B2 and C4. At this size the per-run set-up (topology,
// router, plans) weighs as much as the pings.
func BenchmarkCampaignSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := campaign.Config{Seed: uint64(i) + 1, MobileNodes: 1, WiredRounds: 1,
			TargetCells: []string{"B2", "C4"}}
		if _, err := campaign.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
