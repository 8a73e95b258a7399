// Package sweep turns the single-campaign simulator into a
// scenario-exploration engine. A Grid enumerates axes (seeds, radio
// profiles, peering, UPF placement, mobile-node counts, target-cell
// sets) and expands to the cartesian product of campaign configs, each
// with a stable content-hash scenario ID. Run fans the scenarios out
// over a bounded worker pool; determinism is guaranteed by per-scenario
// des.RNG sub-streams, so the same grid and seed produce byte-identical
// aggregates and JSONL at any worker count. Results are cached by
// scenario hash (the experiment drivers share the process-wide cache),
// replications merge per variant via stats.Summary.Merge, and
// cross-scenario deltas score the paper's peering and edge-UPF
// recommendations across the whole grid at once.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"repro/internal/argame"
	"repro/internal/campaign"
	"repro/internal/des"
	"repro/internal/ran"
	"repro/internal/slicing"
)

// Grid enumerates the scenario axes. Every empty axis contributes a
// single default element, so the zero Grid expands to exactly the
// paper's baseline campaign. Seed handling: an explicit Seeds axis wins;
// otherwise Replications seeds are derived from BaseSeed via independent
// des sub-streams, which keeps replication seeds decorrelated without
// the caller hand-picking them.
type Grid struct {
	// Seeds is the explicit replication axis. When empty, Replications
	// seeds are derived from BaseSeed.
	Seeds []uint64
	// BaseSeed roots the derived replication seeds (used only when
	// Seeds is empty).
	BaseSeed uint64
	// Replications is the number of derived seeds (default 1).
	Replications int

	// Profiles is the radio-profile axis (default: campaign default,
	// public 5G).
	Profiles []*ran.Profile
	// LocalPeering is the Section V-A axis (default: {false}).
	LocalPeering []bool
	// EdgeUPF is the Section V-B axis (default: {false}).
	EdgeUPF []bool
	// MobileNodes is the fleet-size axis; 0 means the campaign default
	// of three nodes (default: {0}).
	MobileNodes []int
	// TargetCellSets is the probe-placement axis; a nil set means the
	// paper's eight sector probes (default: {nil}).
	TargetCellSets [][]string
	// WiredRounds is the wired-baseline-depth axis; 0 means the campaign
	// default of five probe-to-probe sweeps (default: {0}). Note 0 and
	// the explicit default canonicalize to the same scenario, so listing
	// both is a duplicate the expansion rejects.
	WiredRounds []int
	// SlicingStrategies is the probe-placement-strategy axis (Section
	// V-C): each non-none strategy derives the probe cells through
	// slicing.Place with campaign.DefaultSlicingSites sites, while
	// slicing.StrategyNone keeps the paper's hand-picked probes
	// (default: {StrategyNone}). Combining a strategy with an explicit
	// TargetCellSets entry is rejected at campaign run time — the two
	// both choose probe sites.
	SlicingStrategies []slicing.Strategy
	// ARGameDeployments is the AR-session axis (Section IV-A): each
	// non-none deployment runs the campaign in AR mode, folding
	// motion-to-photon samples into the per-cell grid, while
	// argame.DeployNone keeps the plain ping campaign
	// (default: {DeployNone}). A deployment encodes the AR chain's own
	// radio/UPF/peering choices, so crossing this axis with Profiles or
	// EdgeUPF yields AR scenarios that simulate identically under
	// distinct IDs — spend those axes on ping scenarios instead.
	ARGameDeployments []argame.Deployment
}

// Scenario is one fully resolved point of the grid.
type Scenario struct {
	// Index is the scenario's position in deterministic grid order.
	Index int
	// ID is the content hash of the canonical config, seed included.
	ID string
	// Variant is the content hash with the seed excluded; replications
	// of the same deployment share it.
	Variant string
	Config  campaign.Config
}

// SeedAxis returns the resolved replication seeds.
func (g Grid) SeedAxis() []uint64 {
	if len(g.Seeds) > 0 {
		return g.Seeds
	}
	reps := g.Replications
	if reps <= 0 {
		reps = 1
	}
	seeds := make([]uint64, reps)
	for i := range seeds {
		seeds[i] = des.DeriveSeed(g.BaseSeed, fmt.Sprintf("sweep-rep-%d", i))
	}
	return seeds
}

// Size returns the number of scenarios the grid expands to. It errors
// when the product overflows int — an adversarial or typo'd grid must
// fail here, before Scenarios allocates anything proportional to it.
func (g Grid) Size() (int, error) {
	n := uint64(len(g.SeedAxis()))
	for _, l := range []int{len(g.Profiles), len(g.LocalPeering), len(g.EdgeUPF),
		len(g.MobileNodes), len(g.TargetCellSets), len(g.WiredRounds),
		len(g.SlicingStrategies), len(g.ARGameDeployments)} {
		if l == 0 {
			continue
		}
		hi, lo := bits.Mul64(n, uint64(l))
		if hi != 0 || lo > math.MaxInt {
			return 0, fmt.Errorf("sweep: grid size overflows (more than %d scenarios)", math.MaxInt)
		}
		n = lo
	}
	return int(n), nil
}

// Scenarios expands the grid in deterministic order: profiles, peering,
// UPF placement, node counts, cell sets, wired rounds, slicing
// strategies, AR deployments, then seeds innermost so the replications
// of one variant are adjacent. It rejects grids whose axes contain
// duplicates (two scenarios with one ID would make cache-hit accounting
// and JSONL row counts ambiguous).
func (g Grid) Scenarios() ([]Scenario, error) {
	size, err := g.Size()
	if err != nil {
		return nil, err
	}
	seeds := g.SeedAxis()
	profiles := g.Profiles
	if len(profiles) == 0 {
		profiles = []*ran.Profile{nil}
	}
	peering := g.LocalPeering
	if len(peering) == 0 {
		peering = []bool{false}
	}
	edge := g.EdgeUPF
	if len(edge) == 0 {
		edge = []bool{false}
	}
	nodes := g.MobileNodes
	if len(nodes) == 0 {
		nodes = []int{0}
	}
	cellSets := g.TargetCellSets
	if len(cellSets) == 0 {
		cellSets = [][]string{nil}
	}
	wired := g.WiredRounds
	if len(wired) == 0 {
		wired = []int{0}
	}
	slicings := g.SlicingStrategies
	if len(slicings) == 0 {
		slicings = []slicing.Strategy{slicing.StrategyNone}
	}
	arDeploys := g.ARGameDeployments
	if len(arDeploys) == 0 {
		arDeploys = []argame.Deployment{argame.DeployNone}
	}

	out := make([]Scenario, 0, size)
	seen := make(map[string]int, size)
	for _, p := range profiles {
		for _, lp := range peering {
			for _, eu := range edge {
				for _, mn := range nodes {
					for _, cells := range cellSets {
						for _, wr := range wired {
							for _, sl := range slicings {
								for _, ar := range arDeploys {
									for _, seed := range seeds {
										cfg := campaign.Config{
											Seed:         seed,
											MobileNodes:  mn,
											Profile:      p,
											LocalPeering: lp,
											EdgeUPF:      eu,
											TargetCells:  cells,
											WiredRounds:  wr,
										}
										if sl != slicing.StrategyNone {
											cfg.Slicing = &campaign.SlicingPlacement{Strategy: sl}
										}
										if ar != argame.DeployNone {
											cfg.ARGame = &campaign.ARGameMode{Deployment: ar}
										}
										sc := ScenarioOf(cfg)
										sc.Index = len(out)
										if prev, dup := seen[sc.ID]; dup {
											return nil, fmt.Errorf(
												"sweep: scenarios %d and %d are identical (%s); deduplicate the grid axes",
												prev, sc.Index, sc.ID)
										}
										seen[sc.ID] = sc.Index
										out = append(out, sc)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// ScenarioOf identifies cfg: its content-hash ID and seed-free
// variant hash, both from one canonicalization. Index is zero; a grid
// expansion sets it. Every identified scenario is minted here, so a
// caller holding a Scenario never hashes its config again.
func ScenarioOf(cfg campaign.Config) Scenario {
	id, variant := hashConfig(cfg)
	return Scenario{ID: id, Variant: variant, Config: cfg}
}

// ScenarioID returns the stable content hash identifying a campaign
// config, seed included. Configs are canonicalized first, so a zero
// field and its explicit default produce the same ID.
func ScenarioID(cfg campaign.Config) string {
	id, _ := hashConfig(cfg)
	return id
}

// VariantID returns the content hash with the seed excluded: the key
// under which replications of one deployment aggregate.
func VariantID(cfg campaign.Config) string {
	_, variant := hashConfig(cfg)
	return variant
}

// hashedConfigFields is the number of campaign.Config fields hashConfig
// folds into scenario identity. A test asserts it against the struct via
// reflection, so adding a Config field without extending the hash fails
// loudly instead of silently conflating cache entries.
const hashedConfigFields = 9

// hashConfig returns the scenario ID and the variant ID of cfg. Both
// hash one canonical string, "seed=<seed>;" followed by the variant's
// axes: the ID covers all of it, the variant the part after the seed.
// The string is built in a stack buffer, so while it fits there the
// two returned IDs are the only allocations beyond canonicalization.
func hashConfig(cfg campaign.Config) (id, variant string) {
	c := cfg.Canonical()
	var buf [256]byte
	b := append(buf[:0], "seed="...)
	b = strconv.AppendUint(b, c.Seed, 10)
	b = append(b, ';')
	seedLen := len(b)
	b = append(b, "nodes="...)
	b = strconv.AppendInt(b, int64(c.MobileNodes), 10)
	b = append(b, ";profile="...)
	b = append(b, c.Profile.Name...)
	b = append(b, ";peering="...)
	b = strconv.AppendBool(b, c.LocalPeering)
	b = append(b, ";edgeupf="...)
	b = strconv.AppendBool(b, c.EdgeUPF)
	b = append(b, ";wired="...)
	b = strconv.AppendInt(b, int64(c.WiredRounds), 10)
	b = append(b, ";cells="...)
	for i, cell := range c.TargetCells {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, cell...)
	}
	// Later-generation axes append only when set, so every scenario ID
	// minted before they existed is unchanged and old on-disk caches keep
	// serving hits. Extend the hash the same way: append, gated on
	// non-default. (TestScenarioIDGolden pins this compatibility.)
	if c.Slicing != nil {
		// The Slicing.Axis() form: "<strategy>/<sites>".
		b = append(b, ";slicing="...)
		b = append(b, c.Slicing.Strategy.String()...)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(c.Slicing.Sites), 10)
	}
	if c.ARGame != nil {
		b = append(b, ";argame="...)
		b = append(b, c.ARGame.Deployment.String()...)
	}
	return hashID(b), hashID(b[seedLen:])
}

// hashID is the first 8 bytes of s's SHA-256, hex-encoded.
func hashID(s []byte) string {
	sum := sha256.Sum256(s)
	var out [16]byte
	hex.Encode(out[:], sum[:8])
	return string(out[:])
}
