package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/des"
	"repro/internal/sweep"
)

// opKind is the endpoint an operation calls.
type opKind uint8

const (
	opScenario opKind = iota // POST /v1/scenario: one record
	opStream                 // POST /v1/sweep: a grid, streamed in grid order
)

// scenario is one resolvable scenario: the request body the generator
// sends and the identity and config the oracles check its bytes by.
type scenario struct {
	id      string
	variant string
	cfg     campaign.Config
	body    []byte // /v1/scenario body: sweep.AxesOf(cfg) as JSON
}

// grid is one /v1/sweep request body and its scenarios in grid order.
// Plans deduplicate grids by body, so pointer equality is grid equality.
type grid struct {
	body []byte
	scs  []*scenario
}

// op is one client operation. Open-loop ops carry their intended send
// offset from the start of the timed phase; closed-loop ops are cycled
// back to back and ignore it.
type op struct {
	at   time.Duration
	kind opKind
	sc   *scenario // opScenario
	grid *grid     // opStream
	tlv  bool      // opStream: negotiate the binary TLV encoding
}

// sizes scales the fixture and the set-up work. The full sizes are the
// benchmark; tinySizes exist for the smoke test.
type sizes struct {
	hotSeeds  int // hot grid: hotSeeds × local_peering × edge_upf paper-default scenarios
	tail      int // small scenarios in the tail
	lru       int // in-memory LRU entries of every sweepd cache
	setups    int // set-ups per run; setup_s is their median
	recompute int // scenario IDs recomputed in process after the timed phase
	warmups   int // cold-miss: never-timed small scenarios warmed during set-up
}

// The tail is 1.5× the LRU, the same ratio as a 1536-scenario tail over
// the daemon's 1024-entry default: about a third of tail reads go to
// disk. The fixture is scaled down (16 hot, 96 tail) so it warms in
// about a second on two CPUs, which keeps three set-ups per run
// affordable.
var (
	fullSizes = sizes{hotSeeds: 4, tail: 96, lru: 64, setups: 3, recompute: 32, warmups: 16}
	tinySizes = sizes{hotSeeds: 1, tail: 6, lru: 4, setups: 1, recompute: 4, warmups: 2}
)

// smallAxes are the tail's scenario shape: one mobile node, one wired
// round and two probe cells simulate in about 8 ms instead of ~100 ms.
var (
	smallNodes = 1
	smallWired = 1
	smallCells = []string{"B2", "C4"}
)

func smallConfig(seed uint64) campaign.Config {
	return campaign.Config{Seed: seed, MobileNodes: smallNodes, WiredRounds: smallWired, TargetCells: smallCells}
}

// workload is one named traffic mix. Rates and limits are the frozen
// calibration recorded in README.md.
type workload struct {
	name string
	// open selects seeded Poisson arrivals at rate ops/s; otherwise
	// every connection runs the op cycle back to back (closed loop).
	open bool
	rate float64
	// limit is the latency limit per opKind that goodput_rps counts
	// against.
	limit [2]time.Duration
	// conns caps the generator's connections (0: GOMAXPROCS, the
	// machine's CPU count).
	conns int
	// cluster fronts a writer and two replicas with the proxy.
	cluster bool
	build   func(p *plan, r *rand.Rand) error
}

var workloads = []*workload{
	{name: "cold-miss", open: true, rate: 40,
		limit: [2]time.Duration{opScenario: 100 * time.Millisecond}, build: buildColdMiss},
	{name: "warm-read", open: true, rate: 900,
		limit: [2]time.Duration{opScenario: 10 * time.Millisecond}, build: buildWarmRead},
	{name: "sweep-stream-tlv", conns: 1,
		limit: [2]time.Duration{opStream: 20 * time.Millisecond}, build: buildStream(true)},
	{name: "sweep-stream-jsonl", conns: 1,
		limit: [2]time.Duration{opStream: 20 * time.Millisecond}, build: buildStream(false)},
	{name: "cluster-mix", open: true, rate: 500, cluster: true,
		limit: [2]time.Duration{opScenario: 25 * time.Millisecond, opStream: 50 * time.Millisecond}, build: buildClusterMix},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// plan is everything a run sends, derived from the workload and the
// seed alone: the fixture warmed during set-up and the timed ops.
type plan struct {
	w       *workload
	seed    uint64
	seconds float64
	rate    float64
	sz      sizes

	fixture []*grid // warmed over /v1/sweep (JSONL) during set-up
	hot     []*scenario
	tail    []*scenario
	ops     []op

	scenarios map[string]*scenario // every scenario the plan names, by ID
	grids     map[string]*grid     // every grid, by body
}

// buildPlan derives a run's inputs from the seed: the same workload,
// seed, length and sizes always give the same fixture and ops. rate
// overrides the workload's open-loop rate when positive (calibration).
func buildPlan(w *workload, seed uint64, seconds, rate float64, sz sizes) (*plan, error) {
	if rate <= 0 {
		rate = w.rate
	}
	p := &plan{w: w, seed: seed, seconds: seconds, rate: rate, sz: sz,
		scenarios: map[string]*scenario{}, grids: map[string]*grid{}}
	r := rand.New(rand.NewPCG(seed, des.DeriveSeed(seed, "sweepbench-"+w.name)))
	if err := w.build(p, r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return p, nil
}

// derive names a scenario seed; distinct labels give independent
// seeds, so cold, warm-up, fresh and fixture scenarios never collide.
func (p *plan) derive(label string, i int) uint64 {
	return des.DeriveSeed(p.seed, fmt.Sprintf("%s-%d", label, i))
}

// scenario interns a config. fresh requires the ID to be new to the
// plan: a cold or fresh scenario that repeats a planned one would be a
// hit, not the miss its workload promises.
func (p *plan) scenario(cfg campaign.Config, fresh bool) (*scenario, error) {
	id := sweep.ScenarioID(cfg)
	if sc, ok := p.scenarios[id]; ok {
		if fresh {
			return nil, fmt.Errorf("scenario %s planned twice", id)
		}
		return sc, nil
	}
	body, err := json.Marshal(sweep.AxesOf(cfg))
	if err != nil {
		return nil, err
	}
	sc := &scenario{id: id, variant: sweep.VariantID(cfg), cfg: cfg, body: body}
	p.scenarios[id] = sc
	return sc, nil
}

// grid interns a grid spec, expanding it exactly as sweepd does.
func (p *plan) grid(spec sweep.GridSpec) (*grid, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if g, ok := p.grids[string(body)]; ok {
		return g, nil
	}
	sg, err := spec.Grid()
	if err != nil {
		return nil, err
	}
	scs, err := sg.Scenarios()
	if err != nil {
		return nil, err
	}
	g := &grid{body: body}
	for _, s := range scs {
		sc, err := p.scenario(s.Config, false)
		if err != nil {
			return nil, err
		}
		g.scs = append(g.scs, sc)
	}
	p.grids[string(body)] = g
	return g, nil
}

func (p *plan) seeds(label string, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = p.derive(label, i)
	}
	return out
}

func hotSpec(seeds []uint64) sweep.GridSpec {
	return sweep.GridSpec{Seeds: seeds, LocalPeering: []bool{false, true}, EdgeUPF: []bool{false, true}}
}

func tailSpec(seeds []uint64) sweep.GridSpec {
	return sweep.GridSpec{Seeds: seeds, MobileNodes: []int{smallNodes},
		WiredRounds: []int{smallWired}, TargetCells: [][]string{smallCells}}
}

// buildFixture plans the hot grid (paper-default scenarios) and, when
// withTail, the tail grid of small scenarios.
func (p *plan) buildFixture(withTail bool) error {
	hot, err := p.grid(hotSpec(p.seeds("hot", p.sz.hotSeeds)))
	if err != nil {
		return err
	}
	p.fixture, p.hot = append(p.fixture, hot), hot.scs
	if withTail {
		tail, err := p.grid(tailSpec(p.seeds("tail", p.sz.tail)))
		if err != nil {
			return err
		}
		p.fixture, p.tail = append(p.fixture, tail), tail.scs
	}
	return nil
}

// arrivals draws an open-loop schedule: round(rate × seconds) arrival
// offsets, uniform over the phase and sorted. That is a Poisson process
// conditioned on its count, so every seed offers the same load and
// rates read the same from seed to seed.
func arrivals(r *rand.Rand, rate, seconds float64) []time.Duration {
	n := int(math.Round(rate * seconds))
	if n < 1 {
		n = 1
	}
	span := seconds * float64(time.Second)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(r.Float64() * span)
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// buildColdMiss: every op is a never-seen small scenario, cycling
// local_peering × edge_upf, so each one simulates. Small, not
// paper-default: a ~100 ms paper-default miss allows ~120 samples per
// run, too few for tail percentiles that hold still from seed to seed.
// Set-up warms the process with a grid of other small scenarios.
func buildColdMiss(p *plan, r *rand.Rand) error {
	warm, err := p.grid(tailSpec(p.seeds("warmup", p.sz.warmups)))
	if err != nil {
		return err
	}
	p.fixture = []*grid{warm}
	for i, at := range arrivals(r, p.rate, p.seconds) {
		cfg := smallConfig(p.derive("cold", i))
		cfg.LocalPeering, cfg.EdgeUPF = i&1 == 1, i&2 == 2
		sc, err := p.scenario(cfg, true)
		if err != nil {
			return err
		}
		p.ops = append(p.ops, op{at: at, kind: opScenario, sc: sc})
	}
	return nil
}

// buildWarmRead: every 500th op is a fresh small scenario that misses
// and simulates (0.2%); the rest read the fixture, 70% hot and 30%
// tail. The misses are few and evenly spaced so that p99_ms measures
// the read tail: at 1%, or bunched at random, they sit on the boundary
// between reads and simulations and move it from seed to seed.
func buildWarmRead(p *plan, r *rand.Rand) error {
	if err := p.buildFixture(true); err != nil {
		return err
	}
	for i, at := range arrivals(r, p.rate, p.seconds) {
		var sc *scenario
		switch {
		case i%500 == 499:
			var err error
			if sc, err = p.scenario(smallConfig(p.derive("fresh", i)), true); err != nil {
				return err
			}
		case r.Float64() < 0.7:
			sc = p.hot[r.IntN(len(p.hot))]
		default:
			sc = p.tail[r.IntN(len(p.tail))]
		}
		p.ops = append(p.ops, op{at: at, kind: opScenario, sc: sc})
	}
	return nil
}

// buildStream: every connection streams the hot grid back to back in
// one encoding.
func buildStream(tlv bool) func(p *plan, r *rand.Rand) error {
	return func(p *plan, r *rand.Rand) error {
		if err := p.buildFixture(false); err != nil {
			return err
		}
		p.ops = []op{{kind: opStream, grid: p.fixture[0], tlv: tlv}}
		return nil
	}
}

// buildClusterMix: 85% scenario reads over the fixture (70/30 hot/tail)
// and 15% TLV streams of 16-scenario grids cut from it. Streams are 3 of
// every 20 ops, evenly spaced, so every seed sends the same number.
func buildClusterMix(p *plan, r *rand.Rand) error {
	if err := p.buildFixture(true); err != nil {
		return err
	}
	hotSeeds, tailSeeds := p.seeds("hot", p.sz.hotSeeds), p.seeds("tail", p.sz.tail)
	for i, at := range arrivals(r, p.rate, p.seconds) {
		o := op{at: at, kind: opScenario}
		switch {
		case i%20 != 0 && i%20 != 7 && i%20 != 14:
			if r.Float64() < 0.7 {
				o.sc = p.hot[r.IntN(len(p.hot))]
			} else {
				o.sc = p.tail[r.IntN(len(p.tail))]
			}
		default:
			// A 16-scenario grid: four hot seeds (in drawn order) ×
			// peering × edge UPF, or sixteen tail seeds.
			spec := hotSpec(pick(r, hotSeeds, 4))
			if r.Float64() >= 0.7 {
				spec = tailSpec(pick(r, tailSeeds, 16))
			}
			g, err := p.grid(spec)
			if err != nil {
				return err
			}
			o = op{at: at, kind: opStream, grid: g, tlv: true}
		}
		p.ops = append(p.ops, o)
	}
	return nil
}

// pick draws min(n, len(from)) distinct elements in random order.
func pick(r *rand.Rand, from []uint64, n int) []uint64 {
	if n > len(from) {
		n = len(from)
	}
	out := make([]uint64, 0, n)
	for _, i := range r.Perm(len(from))[:n] {
		out = append(out, from[i])
	}
	return out
}
