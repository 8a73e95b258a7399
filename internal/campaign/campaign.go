// Package campaign orchestrates the paper's Section IV evaluation: mobile
// measurement nodes traverse the Klagenfurt sector grid and ping eight
// RIPE-Atlas-style wired probes spread across the sector, through the 5G
// user plane anchored at the operator's central (Vienna) UPF. Per-cell
// aggregation with the fewer-than-ten-measurements exclusion rule yields
// the data behind Figure 2 (mean round-trip latency) and Figure 3
// (standard deviation); probe-to-probe pings yield the wired baseline for
// the paper's "mobile exceeds wired by a factor of seven" comparison.
//
// A run schedules nothing while it runs, so it needs no event calendar:
// pings are a merge of streams laid out in time order up front, with
// equal times going to the earlier stream, as a calendar would order them.
package campaign

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/argame"
	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/probe"
	"repro/internal/ran"
	"repro/internal/slicing"
	"repro/internal/stats"
)

// MinMeasurements is the reporting threshold: cells with fewer samples
// appear as 0.0 in Figure 2.
const MinMeasurements = 10

// Config parameterizes a campaign run.
type Config struct {
	Seed        uint64
	MobileNodes int          // number of mobile measurement nodes (default 3)
	Profile     *ran.Profile // radio profile (default ran.Profile5G)
	// LocalPeering applies the Section V-A recommendation before routing.
	LocalPeering bool
	// EdgeUPF anchors sessions at the Klagenfurt edge UPF (Section V-B)
	// instead of the central Vienna UPF.
	EdgeUPF bool
	// TargetCells override the default eight probe cells ("B2"-style).
	TargetCells []string
	// WiredRounds is the number of full probe-to-probe baseline sweeps.
	WiredRounds int
	// Slicing, when non-nil, derives the probe cells from a Section V-C
	// hypervisor-placement strategy instead of TargetCells; setting both
	// is an error. A placement with slicing.StrategyNone normalizes to
	// nil (no slicing).
	Slicing *SlicingPlacement
	// ARGame, when non-nil, switches the campaign into the Section IV-A
	// AR-session mode on the given deployment (see ARGameMode). A mode
	// with argame.DeployNone normalizes to nil (plain ping campaign).
	ARGame *ARGameMode
}

// Canonical returns the config with all defaults applied: the normal form
// used for content-addressed scenario identity (internal/sweep), so that
// a zero-value field and its explicit default hash identically.
func (c Config) Canonical() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.MobileNodes == 0 {
		c.MobileNodes = 3
	}
	if c.Profile == nil {
		c.Profile = ran.Profile5G
	}
	if c.Slicing != nil {
		if c.Slicing.Strategy == slicing.StrategyNone {
			c.Slicing = nil
		} else {
			s := c.Slicing.withDefaults()
			c.Slicing = &s
		}
	}
	if len(c.TargetCells) == 0 && c.Slicing == nil {
		// Eight probes spread over the populated sector (Figure 1).
		// With slicing set, the probe cells come from the placement at
		// run time instead, and TargetCells stays empty.
		c.TargetCells = []string{"B2", "E2", "A3", "C4", "F3", "B5", "D5", "C6"}
	}
	if c.WiredRounds == 0 {
		c.WiredRounds = 5
	}
	if c.ARGame != nil && c.ARGame.Deployment == argame.DeployNone {
		c.ARGame = nil
	}
	return c
}

// CellReport is one cell of the Figure 2 / Figure 3 grid.
type CellReport struct {
	Cell     geo.CellID
	N        int
	MeanMs   float64 // 0.0 when not Reported, as in Figure 2
	StdMs    float64
	Reported bool
	// GhostHits counts the cell's AR motion-to-photon samples that
	// exceeded the 20 ms budget (argame.Deadline) — each one a frame a
	// throw could resolve against a stale pose. Always zero for the
	// plain ping campaign; the per-cell ghost-hit rate is GhostHits/N.
	GhostHits int
}

// Result is a completed campaign.
type Result struct {
	Config Config
	// Grid and Density are the process's one sector grid and density
	// raster, shared by every result: read them, never write them.
	Grid    *geo.Grid
	Density *geo.DensityModel

	// Samples holds every per-cell RTT sample in milliseconds, one
	// for each cell in Reports.
	Samples map[geo.CellID]*stats.Sample
	// Reports has one entry per traversed cell, row-major.
	Reports []CellReport

	// Mobile aggregates over reported cells only (paper semantics).
	MobileMean stats.Summary // of per-cell means
	MobileAll  stats.Summary // of raw samples in reported cells

	// Wired baseline: probe-to-probe RTTs.
	Wired stats.Summary

	// Extremes among reported cells.
	MinMean, MaxMean CellReport
	MinStd, MaxStd   CellReport

	TotalMeasurements int
	VirtualDuration   time.Duration

	// SummaryOnly marks a result restored from a compact record:
	// every summary and report is exact, but raw per-cell samples are
	// absent, so quantiles, CDFs and histograms are unavailable.
	// Consumers needing raw samples should re-run instead.
	SummaryOnly bool
}

// MobileVsWiredFactor returns the paper's headline ratio (~7x).
func (r *Result) MobileVsWiredFactor() float64 {
	return stats.Ratio(r.MobileAll.Mean(), r.Wired.Mean())
}

// Run executes the campaign. Everything its seed does not set comes
// from the world of its shape (see world), built once per process and
// shared; Run itself plans the drives, lays out the ping streams and
// draws every sample. It fires the pings as a merge of pre-ordered
// streams (see pingStreams and merge): equal times go to the earlier
// stream, nodes in plan order, then wired. A leg whose routing failed
// returns its error at its first ping, so the first routing error in
// firing order is the one returned, and AR mode, which never pings a
// target, never sees a session's error.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.MobileNodes < 0 {
		return nil, fmt.Errorf("campaign: MobileNodes must be >= 0, got %d", cfg.MobileNodes)
	}
	if cfg.WiredRounds < 0 {
		return nil, fmt.Errorf("campaign: WiredRounds must be >= 0, got %d", cfg.WiredRounds)
	}
	// Errors keep their order from before worlds were kept: the probe
	// placement, then the AR deployment, then the probe cells.
	w, err := worlds.get(shapeOf(cfg))
	pe, badCells := err.(probeError)
	if err != nil && !badCells {
		return nil, err
	}
	var arSampler *argame.Sampler
	if cfg.ARGame != nil {
		var arErr error
		if arSampler, arErr = argame.NewSampler(cfg.ARGame.Deployment); arErr != nil {
			return nil, arErr
		}
	}
	if badCells {
		return nil, pe.err
	}
	return w.run(cfg, arSampler)
}

// run does a campaign's seeded work on its world: plans, ping streams,
// samples and aggregation. A mobile ping draws its radio leg, then the
// wired jitter of its session; a wired ping draws the jitter of its
// pair's path.
func (w *world) run(cfg Config, arSampler *argame.Sampler) (*Result, error) {
	root := des.NewRNG(cfg.Seed)
	plans := w.routes.Plan(cfg.MobileNodes, root.Stream("mobility"))
	nTargets := len(w.sessions)
	streams, perCell := pingStreams(plans, w.cellIdx, nTargets, cfg.WiredRounds)
	wiredStream := len(plans)
	rngs := make([]*des.RNG, len(streams))
	for s, plan := range plans {
		rngs[s] = root.Stream(fmt.Sprintf("node-%d", plan.Node))
	}
	rngs[wiredStream] = root.Stream("wired")

	res := &Result{
		Config:  cfg,
		Grid:    w.grid,
		Density: w.density,
		Samples: make(map[geo.CellID]*stats.Sample, len(w.cells)),
	}
	samples := stats.NewSamples(perCell)
	for i, c := range w.cells {
		res.Samples[c] = &samples[i]
	}
	ghostHits := make([]int, len(w.cells))

	m := newMerge(streams)
	for {
		s, p, ok := m.next()
		if !ok {
			break
		}
		res.VirtualDuration = p.at
		if s == wiredStream {
			l := &w.wired[p.src*nTargets+p.tgt]
			if l.err != nil {
				return nil, l.err
			}
			res.Wired.AddDuration(l.rtt + probe.WiredJitter(rngs[s], l.hops))
			continue
		}
		// AR mode samples the game's motion-to-photon chain from this
		// cell; the plain campaign pings the wired probe. Both fold into
		// the same per-cell grid.
		var rtt time.Duration
		if arSampler != nil {
			var err error
			if rtt, err = arSampler.M2P(rngs[s], w.cells[p.cell]); err != nil {
				return nil, err
			}
			// A chain over the motion-to-photon budget is a ghost-hit
			// risk (argame's throw rule, applied to every sampled frame).
			if rtt > argame.Deadline {
				ghostHits[p.cell]++
			}
		} else {
			l := &w.sessions[p.tgt]
			if l.err != nil {
				return nil, l.err
			}
			rtt = cfg.Profile.SampleRTT(rngs[s], w.cond[p.cell]) + l.rtt + probe.WiredJitter(rngs[s], l.hops)
		}
		samples[p.cell].AddDuration(rtt)
		res.TotalMeasurements++
	}

	// Aggregate per cell.
	res.Reports = make([]CellReport, 0, len(w.cells))
	for i, c := range w.cells {
		s := &samples[i]
		rep := CellReport{Cell: c, N: s.N(), GhostHits: ghostHits[i]}
		if s.N() >= MinMeasurements {
			rep.Reported = true
			rep.MeanMs = s.Mean()
			rep.StdMs = s.Std()
			res.MobileMean.Add(rep.MeanMs)
			res.MobileAll.Merge(s.Summary)
		}
		res.Reports = append(res.Reports, rep)
	}

	if err := res.computeExtremes(); err != nil {
		return nil, err
	}
	return res, nil
}

// ping is one scheduled measurement. In a mobile node's stream it runs
// from the node's cell (an index into Run's traversal cells) to
// targets[tgt]; in the wired stream it runs from probe targets[src] to
// probe targets[tgt].
type ping struct {
	at       time.Duration
	cell     int
	src, tgt int
}

// pingStreams lays out every ping of a campaign: one stream per mobile
// plan, in plan order, then one for the wired rounds. Each stream is in
// non-decreasing time and sized exactly. perCell counts the mobile
// pings per traversal cell, which is every cell's final sample size.
func pingStreams(plans []mobility.Plan, cellIdx map[geo.CellID]int, nTargets, wiredRounds int) (streams [][]ping, perCell []int) {
	streams = make([][]ping, 0, len(plans)+1)
	perCell = make([]int, len(cellIdx))
	for _, plan := range plans {
		n := 0
		for _, stop := range plan.Stops {
			n += stop.Rounds*nTargets + stop.PartialPings
		}
		pings := make([]ping, 0, n)
		at := time.Duration(0)
		targetIdx := plan.Node // desynchronize target cycling across nodes
		for _, stop := range plan.Stops {
			at += mobility.TravelTime
			cell := cellIdx[stop.Cell]
			k := stop.Rounds*nTargets + stop.PartialPings
			perCell[cell] += k
			for i := 0; i < k; i++ {
				pings = append(pings, ping{
					at:   at + time.Duration(i/nTargets)*mobility.RoundInterval,
					cell: cell,
					tgt:  targetIdx % nTargets,
				})
				targetIdx++
			}
			at += time.Duration(stop.Rounds) * mobility.RoundInterval
			if stop.PartialPings > 0 {
				at += mobility.RoundInterval / 2
			}
		}
		streams = append(streams, pings)
	}

	// Wired baseline: full mesh between the sector probes.
	wired := make([]ping, 0, wiredRounds*nTargets*(nTargets-1))
	for round := 0; round < wiredRounds; round++ {
		at := time.Duration(round) * time.Minute
		for i := 0; i < nTargets; i++ {
			for j := 0; j < nTargets; j++ {
				if i != j {
					wired = append(wired, ping{at: at, src: i, tgt: j})
				}
			}
		}
	}
	return append(streams, wired), perCell
}

// merge fires pre-ordered ping streams in (time, stream index, position)
// order. With the streams in scheduling order, that is the order a des
// calendar fires the same pings in when they are all queued up front:
// by time, then by insertion sequence. It takes the
// linear minimum over the stream heads (a campaign has one stream per
// mobile node plus one), keeping the first on equal times. Every stream
// must be non-decreasing in time.
type merge struct {
	streams [][]ping
	heads   []int
}

func newMerge(streams [][]ping) merge {
	return merge{streams: streams, heads: make([]int, len(streams))}
}

// next returns the next ping to fire and its stream index; ok is false
// once every stream is drained.
func (m *merge) next() (stream int, p ping, ok bool) {
	stream = -1
	for s, st := range m.streams {
		if h := m.heads[s]; h < len(st) && (stream < 0 || st[h].at < p.at) {
			stream, p = s, st[h]
		}
	}
	if stream < 0 {
		return 0, ping{}, false
	}
	m.heads[stream]++
	return stream, p, true
}

// computeExtremes derives the Min/Max report fields from Reports. It is
// shared between Run and ResultState.Restore so a rehydrated result
// reproduces the same extremes the original run computed.
func (r *Result) computeExtremes() error {
	reported := make([]CellReport, 0, len(r.Reports))
	for _, rep := range r.Reports {
		if rep.Reported {
			reported = append(reported, rep)
		}
	}
	if len(reported) == 0 {
		return fmt.Errorf("campaign: no cell reached %d measurements", MinMeasurements)
	}
	sort.Slice(reported, func(i, j int) bool { return reported[i].MeanMs < reported[j].MeanMs })
	r.MinMean, r.MaxMean = reported[0], reported[len(reported)-1]
	sort.Slice(reported, func(i, j int) bool { return reported[i].StdMs < reported[j].StdMs })
	r.MinStd, r.MaxStd = reported[0], reported[len(reported)-1]
	return nil
}
