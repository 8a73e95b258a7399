package campaign

import (
	"fmt"
	"time"

	"repro/internal/argame"
	"repro/internal/geo"
	"repro/internal/ran"
	"repro/internal/slicing"
	"repro/internal/stats"
)

// ResultState is the serializable form of a completed Result, built for
// the sweep result store: every summary is captured losslessly (raw
// Welford accumulators, stats.SummaryState), so a State→Restore
// round-trip reproduces the original result bit-for-bit in everything
// downstream consumers derive from it — JSONL records, variant
// aggregates, recommendation deltas. Raw per-cell samples are included
// only in the full form; the compact form drops them and keeps the
// per-cell moments, which is all the sweep pipeline needs.
type ResultState struct {
	Config       ConfigState        `json:"config"`
	Measurements int                `json:"measurements"`
	VirtualNs    int64              `json:"virtual_ns"`
	MobileMean   stats.SummaryState `json:"mobile_mean"`
	MobileAll    stats.SummaryState `json:"mobile_all"`
	Wired        stats.SummaryState `json:"wired"`
	Cells        []CellState        `json:"cells"`
	// Compact records that raw samples were dropped at capture time;
	// Restore surfaces it as Result.SummaryOnly so consumers can tell a
	// compact record from missing data.
	Compact bool `json:"compact,omitempty"`
	// ARGhosts marks that per-cell ghost-hit counts were captured; it is
	// set for every AR-mode result written since ghost accounting
	// landed. An AR record without it predates the accounting and cannot
	// distinguish "zero ghost hits" from "never counted", so Restore
	// rejects it — the store treats that as a miss and the scenario
	// re-simulates once, rewriting a complete record. Ping-campaign
	// records are unaffected (their ghost counts are definitionally
	// zero), so the field is append-only for every pre-existing
	// non-AR record.
	ARGhosts bool `json:"ar_ghosts,omitempty"`
}

// ConfigState serializes a canonical Config. The radio profile is
// stored by name and resolved through the ran registry on restore;
// a config using an unregistered profile cannot round-trip. Slicing and
// ARGame serialize by name and omit when absent, so records written
// before the fields existed — and records of configs not using them —
// keep their exact bytes.
type ConfigState struct {
	Seed         uint64        `json:"seed"`
	MobileNodes  int           `json:"mobile_nodes"`
	Profile      string        `json:"profile"`
	LocalPeering bool          `json:"local_peering"`
	EdgeUPF      bool          `json:"edge_upf"`
	TargetCells  []string      `json:"target_cells"`
	WiredRounds  int           `json:"wired_rounds"`
	Slicing      *SlicingState `json:"slicing,omitempty"`
	ARGame       string        `json:"ar_game,omitempty"`
}

// SlicingState serializes a SlicingPlacement by strategy name.
type SlicingState struct {
	Strategy string `json:"strategy"`
	Sites    int    `json:"sites"`
}

// CellState is one traversed cell: the report row plus the cell's full
// sample moments (reported or not), and the raw RTT samples in
// milliseconds unless captured compactly.
type CellState struct {
	Cell     string  `json:"cell"`
	N        int     `json:"n"`
	MeanMs   float64 `json:"mean_ms"`
	StdMs    float64 `json:"std_ms"`
	Reported bool    `json:"reported"`
	// GhostHits carries the AR-mode over-budget sample count; omitted
	// when zero so ping-campaign records keep their exact bytes.
	GhostHits int                `json:"ghost_hits,omitempty"`
	Summary   stats.SummaryState `json:"summary"`
	Samples   []float64          `json:"samples,omitempty"`
}

// State captures the result. With compact set, raw per-cell samples are
// omitted — orders of magnitude smaller for large campaigns — at the
// cost of quantile/CDF/histogram support on the restored result.
func (r *Result) State(compact bool) ResultState {
	cfg := r.Config.Canonical()
	st := ResultState{
		Config: ConfigState{
			Seed:         cfg.Seed,
			MobileNodes:  cfg.MobileNodes,
			Profile:      cfg.Profile.Name,
			LocalPeering: cfg.LocalPeering,
			EdgeUPF:      cfg.EdgeUPF,
			TargetCells:  append([]string{}, cfg.TargetCells...),
			WiredRounds:  cfg.WiredRounds,
		},
		Measurements: r.TotalMeasurements,
		VirtualNs:    int64(r.VirtualDuration),
		MobileMean:   r.MobileMean.State(),
		MobileAll:    r.MobileAll.State(),
		Wired:        r.Wired.State(),
		Cells:        make([]CellState, 0, len(r.Reports)),
		Compact:      compact,
	}
	if cfg.Slicing != nil {
		st.Config.Slicing = &SlicingState{
			Strategy: cfg.Slicing.Strategy.String(),
			Sites:    cfg.Slicing.Sites,
		}
	}
	if cfg.ARGame != nil {
		st.Config.ARGame = cfg.ARGame.Deployment.String()
		st.ARGhosts = true
	}
	for _, rep := range r.Reports {
		cs := CellState{
			Cell:      rep.Cell.String(),
			N:         rep.N,
			MeanMs:    rep.MeanMs,
			StdMs:     rep.StdMs,
			Reported:  rep.Reported,
			GhostHits: rep.GhostHits,
		}
		if s := r.Samples[rep.Cell]; s != nil {
			cs.Summary = s.State()
			if !compact {
				cs.Samples = append([]float64{}, s.Values()...)
			}
		}
		st.Cells = append(st.Cells, cs)
	}
	return st
}

// Restore rebuilds a Result from the captured state. It shares the
// process's sector grid and density model, as Run does; summaries
// restore losslessly; the extreme cells are recomputed with Run's
// rule. Restoring fails if the profile name no longer resolves or a
// cell id is malformed — callers (the sweep store) treat that as a
// cache miss, never as a fatal error.
func (st ResultState) Restore() (*Result, error) {
	profile, ok := ran.ProfileByName(st.Config.Profile)
	if !ok {
		return nil, fmt.Errorf("campaign: state references unknown profile %q", st.Config.Profile)
	}
	var slicingCfg *SlicingPlacement
	if st.Config.Slicing != nil {
		strategy, ok := slicing.StrategyByName(st.Config.Slicing.Strategy)
		if !ok {
			return nil, fmt.Errorf("campaign: state references unknown slicing strategy %q",
				st.Config.Slicing.Strategy)
		}
		slicingCfg = &SlicingPlacement{Strategy: strategy, Sites: st.Config.Slicing.Sites}
	}
	var arCfg *ARGameMode
	if st.Config.ARGame != "" {
		deploy, ok := argame.DeploymentByName(st.Config.ARGame)
		if !ok {
			return nil, fmt.Errorf("campaign: state references unknown AR deployment %q",
				st.Config.ARGame)
		}
		if !st.ARGhosts {
			// An AR record written before ghost-hit accounting: absent
			// counts are indistinguishable from genuine zeros, so refuse
			// to restore — the caller (the sweep store) degrades this to
			// a cache miss and the scenario re-simulates once with full
			// accounting.
			return nil, fmt.Errorf("campaign: AR record predates ghost-hit accounting; re-simulate")
		}
		arCfg = &ARGameMode{Deployment: deploy}
	}
	grid, density := klagenfurt()
	res := &Result{
		Config: Config{
			Seed:         st.Config.Seed,
			MobileNodes:  st.Config.MobileNodes,
			Profile:      profile,
			LocalPeering: st.Config.LocalPeering,
			EdgeUPF:      st.Config.EdgeUPF,
			TargetCells:  append([]string{}, st.Config.TargetCells...),
			WiredRounds:  st.Config.WiredRounds,
			Slicing:      slicingCfg,
			ARGame:       arCfg,
		},
		Grid:              grid,
		Density:           density,
		Samples:           make(map[geo.CellID]*stats.Sample, len(st.Cells)),
		Reports:           make([]CellReport, 0, len(st.Cells)),
		MobileMean:        st.MobileMean.Summary(),
		MobileAll:         st.MobileAll.Summary(),
		Wired:             st.Wired.Summary(),
		TotalMeasurements: st.Measurements,
		VirtualDuration:   time.Duration(st.VirtualNs),
		SummaryOnly:       st.Compact,
	}
	for _, cs := range st.Cells {
		cell, err := geo.ParseCellID(cs.Cell)
		if err != nil {
			return nil, fmt.Errorf("campaign: state cell %q: %w", cs.Cell, err)
		}
		res.Samples[cell] = stats.RestoreSample(cs.Summary.Summary(), cs.Samples)
		res.Reports = append(res.Reports, CellReport{
			Cell:      cell,
			N:         cs.N,
			MeanMs:    cs.MeanMs,
			StdMs:     cs.StdMs,
			Reported:  cs.Reported,
			GhostHits: cs.GhostHits,
		})
	}
	if err := res.computeExtremes(); err != nil {
		return nil, fmt.Errorf("campaign: state restores to %w", err)
	}
	return res, nil
}

// Clone returns an independent deep copy of the result: the caller may
// mutate samples, reports or config freely without affecting the
// original. The sector grid and density model are shared — they are
// immutable topology. Cloned samples are exact-size. The sweep cache
// keeps one copy of each fresh result, to shed its sample growth
// slack, and clones per lookup only for Want.Raw callers; every other
// hit shares the cached result read-only.
func (r *Result) Clone() *Result { return r.clone(false) }

// SummaryClone is Clone without the raw per-cell samples: the copy is
// SummaryOnly, exactly like a result restored from a compact record,
// and every summary and report is exact. The sweep cache keeps such a
// copy in memory when a backing store holds the raw samples.
func (r *Result) SummaryClone() *Result { return r.clone(true) }

func (r *Result) clone(summaryOnly bool) *Result {
	if r == nil {
		return nil
	}
	cp := *r
	cp.Config.TargetCells = append([]string(nil), r.Config.TargetCells...)
	if r.Config.Slicing != nil {
		s := *r.Config.Slicing
		cp.Config.Slicing = &s
	}
	if r.Config.ARGame != nil {
		a := *r.Config.ARGame
		cp.Config.ARGame = &a
	}
	cp.Samples = make(map[geo.CellID]*stats.Sample, len(r.Samples))
	for c, s := range r.Samples {
		if summaryOnly {
			cp.Samples[c] = stats.RestoreSample(s.Summary, nil)
		} else {
			cp.Samples[c] = s.Clone()
		}
	}
	cp.SummaryOnly = r.SummaryOnly || summaryOnly
	cp.Reports = append([]CellReport(nil), r.Reports...)
	return &cp
}
