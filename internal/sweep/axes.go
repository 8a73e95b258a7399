package sweep

import (
	"fmt"
	"strings"

	"repro/internal/argame"
	"repro/internal/campaign"
	"repro/internal/ran"
	"repro/internal/slicing"
)

// Axes is the wire-level description of a single scenario point — the
// request-side counterpart of one Grid cell, with every axis named the
// way the JSONL Record names it. It exists so a serving layer can
// resolve one scenario by its axes without expanding a grid: unmarshal,
// Scenario(), look the ID up in the cache. Zero values mean the
// campaign defaults, exactly as in campaign.Config, so the zero Axes is
// the paper's baseline campaign at seed 0.
type Axes struct {
	Seed         uint64   `json:"seed"`
	Profile      string   `json:"profile,omitempty"`
	LocalPeering bool     `json:"local_peering,omitempty"`
	EdgeUPF      bool     `json:"edge_upf,omitempty"`
	MobileNodes  int      `json:"mobile_nodes,omitempty"`
	TargetCells  []string `json:"target_cells,omitempty"`
	WiredRounds  int      `json:"wired_rounds,omitempty"`
	// Slicing is a placement strategy name ("latency", "resilience",
	// "loadbalance"); empty or "none" keeps the hand-picked probes.
	// SlicingSites overrides the placement's site count (default 8).
	Slicing      string `json:"slicing,omitempty"`
	SlicingSites int    `json:"slicing_sites,omitempty"`
	// ARDeployment is an AR-game deployment name ("5G-baseline",
	// "5G-edge-upf", ...); empty or "none" keeps the plain ping
	// campaign.
	ARDeployment string `json:"ar_deployment,omitempty"`
}

// Config resolves the axes to a campaign config, rejecting unknown
// profile, strategy and deployment names and nonsensical counts with
// errors a serving layer can surface as bad requests.
func (a Axes) Config() (campaign.Config, error) {
	var cfg campaign.Config
	if a.MobileNodes < 0 {
		return cfg, fmt.Errorf("sweep: mobile_nodes must be >= 0, got %d", a.MobileNodes)
	}
	if a.WiredRounds < 0 {
		return cfg, fmt.Errorf("sweep: wired_rounds must be >= 0, got %d", a.WiredRounds)
	}
	if a.SlicingSites < 0 {
		return cfg, fmt.Errorf("sweep: slicing_sites must be >= 0, got %d", a.SlicingSites)
	}
	cfg = campaign.Config{
		Seed:         a.Seed,
		MobileNodes:  a.MobileNodes,
		LocalPeering: a.LocalPeering,
		EdgeUPF:      a.EdgeUPF,
		TargetCells:  append([]string(nil), a.TargetCells...),
		WiredRounds:  a.WiredRounds,
	}
	if a.Profile != "" {
		p, ok := ran.ProfileByName(a.Profile)
		if !ok {
			return cfg, fmt.Errorf("sweep: unknown profile %q (known: %s)", a.Profile, profileList())
		}
		cfg.Profile = p
	}
	strategy := slicing.StrategyNone
	if a.Slicing != "" {
		s, ok := slicing.StrategyByName(a.Slicing)
		if !ok {
			return cfg, fmt.Errorf("sweep: unknown slicing strategy %q (known: none, %s)",
				a.Slicing, strategyList())
		}
		strategy = s
	}
	if strategy == slicing.StrategyNone {
		// "none" and absent are the same axis point, so they validate the
		// same way: sites without a placement is a contradiction either
		// way, not a silently ignored field.
		if a.SlicingSites != 0 {
			return cfg, fmt.Errorf("sweep: slicing_sites needs a non-none slicing strategy")
		}
	} else {
		if len(a.TargetCells) > 0 {
			return cfg, fmt.Errorf("sweep: slicing and target_cells are mutually exclusive")
		}
		cfg.Slicing = &campaign.SlicingPlacement{Strategy: strategy, Sites: a.SlicingSites}
	}
	if a.ARDeployment != "" {
		d, ok := argame.DeploymentByName(a.ARDeployment)
		if !ok {
			return cfg, fmt.Errorf("sweep: unknown AR deployment %q (known: none, %s)",
				a.ARDeployment, deployList())
		}
		if d != argame.DeployNone {
			cfg.ARGame = &campaign.ARGameMode{Deployment: d}
		}
	}
	return cfg, nil
}

// Scenario resolves the axes all the way to an identified scenario:
// the canonicalized config plus its content-hash ID and seed-free
// variant hash. Index is zero — a single resolved scenario has no grid
// position.
func (a Axes) Scenario() (Scenario, error) {
	cfg, err := a.Config()
	if err != nil {
		return Scenario{}, err
	}
	return ScenarioOf(cfg), nil
}

// AxesOf inverts Config: the wire-level axes that resolve back to the
// same canonical config, and therefore the same scenario ID. Routing
// layers use it to re-describe one expanded grid cell as a standalone
// /v1/scenario request — fanning a sweep out scenario by scenario
// without inventing a second wire format.
func AxesOf(cfg campaign.Config) Axes {
	c := cfg.Canonical()
	a := Axes{
		Seed:         c.Seed,
		Profile:      c.Profile.Name,
		LocalPeering: c.LocalPeering,
		EdgeUPF:      c.EdgeUPF,
		MobileNodes:  c.MobileNodes,
		TargetCells:  append([]string(nil), c.TargetCells...),
		WiredRounds:  c.WiredRounds,
	}
	if c.Slicing != nil {
		// Canonical slicing configs carry no explicit target cells — the
		// placement chooses the probes — so the two exclusive axes can
		// never both round-trip populated.
		a.Slicing = c.Slicing.Strategy.String()
		a.SlicingSites = c.Slicing.Sites
		a.TargetCells = nil
	}
	if c.ARGame != nil {
		a.ARDeployment = c.ARGame.Deployment.String()
	}
	return a
}

// GridSpec is the wire-level description of a whole Grid, with every
// axis carried by name so it can round-trip through JSON. Empty axes
// default exactly as Grid's do.
type GridSpec struct {
	Seeds         []uint64   `json:"seeds,omitempty"`
	BaseSeed      uint64     `json:"base_seed,omitempty"`
	Replications  int        `json:"replications,omitempty"`
	Profiles      []string   `json:"profiles,omitempty"`
	LocalPeering  []bool     `json:"local_peering,omitempty"`
	EdgeUPF       []bool     `json:"edge_upf,omitempty"`
	MobileNodes   []int      `json:"mobile_nodes,omitempty"`
	TargetCells   [][]string `json:"target_cell_sets,omitempty"`
	WiredRounds   []int      `json:"wired_rounds,omitempty"`
	Slicing       []string   `json:"slicing,omitempty"`
	ARDeployments []string   `json:"ar_deployments,omitempty"`
}

// Grid resolves the spec's named axes to a Grid, rejecting unknown
// names with errors suitable for bad-request responses. Duplicate axis
// values are not rejected here — Grid.Scenarios() already refuses
// duplicate scenarios with a precise message.
func (s GridSpec) Grid() (Grid, error) {
	g := Grid{
		Seeds:          append([]uint64(nil), s.Seeds...),
		BaseSeed:       s.BaseSeed,
		Replications:   s.Replications,
		LocalPeering:   append([]bool(nil), s.LocalPeering...),
		EdgeUPF:        append([]bool(nil), s.EdgeUPF...),
		MobileNodes:    append([]int(nil), s.MobileNodes...),
		TargetCellSets: append([][]string(nil), s.TargetCells...),
		WiredRounds:    append([]int(nil), s.WiredRounds...),
	}
	if s.Replications < 0 {
		return g, fmt.Errorf("sweep: replications must be >= 0, got %d", s.Replications)
	}
	// The same value checks Axes.Config applies, so an axis value the
	// scenario endpoint rejects can never slip through as a grid element
	// (a negative wired_rounds would otherwise simulate a wired-less
	// campaign and persist it under a legitimate-looking scenario hash).
	for _, n := range s.MobileNodes {
		if n < 0 {
			return g, fmt.Errorf("sweep: mobile_nodes must be >= 0, got %d", n)
		}
	}
	for _, n := range s.WiredRounds {
		if n < 0 {
			return g, fmt.Errorf("sweep: wired_rounds must be >= 0, got %d", n)
		}
	}
	for _, name := range s.Profiles {
		p, ok := ran.ProfileByName(name)
		if !ok {
			return g, fmt.Errorf("sweep: unknown profile %q (known: %s)", name, profileList())
		}
		g.Profiles = append(g.Profiles, p)
	}
	for _, name := range s.Slicing {
		st, ok := slicing.StrategyByName(name)
		if !ok {
			return g, fmt.Errorf("sweep: unknown slicing strategy %q (known: none, %s)",
				name, strategyList())
		}
		g.SlicingStrategies = append(g.SlicingStrategies, st)
	}
	for _, name := range s.ARDeployments {
		d, ok := argame.DeploymentByName(name)
		if !ok {
			return g, fmt.Errorf("sweep: unknown AR deployment %q (known: none, %s)",
				name, deployList())
		}
		g.ARGameDeployments = append(g.ARGameDeployments, d)
	}
	return g, nil
}

func profileList() string {
	names := make([]string, len(ran.Profiles))
	for i, p := range ran.Profiles {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

func strategyList() string {
	names := make([]string, len(slicing.Strategies))
	for i, s := range slicing.Strategies {
		names[i] = s.String()
	}
	return strings.Join(names, ", ")
}

func deployList() string {
	names := make([]string, len(argame.Deployments))
	for i, d := range argame.Deployments {
		names[i] = d.String()
	}
	return strings.Join(names, ", ")
}
