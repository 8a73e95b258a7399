// Package argame simulates the paper's Section IV-A use case: a
// distributed augmented-reality dodgeball game between two players
// wearing AR headsets, built from three services — a Video Streaming
// Service (the bidirectional 60 FPS stream pairing the players), a Remote
// Controller Service (aim/throw events) and a Trajectory Service (applies
// events to the stream and renders the ball's flight).
//
// The game is playable when the motion-to-photon chain completes within
// the 20 ms round-trip budget [15]; frames that miss it risk "ghost hits"
// — a player struck by a ball although their physical position no longer
// matches the rendered one. The simulation replays the frame cycle under
// different infrastructure deployments and reports deadline hit rates.
package argame

import (
	"fmt"
	"time"

	"repro/internal/corenet"
	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/ran"
	"repro/internal/stats"
	"repro/internal/topo"
)

// FrameInterval is the 60 FPS frame cycle (16.6 ms).
const FrameInterval = 16600 * time.Microsecond

// Deadline is the maximum acceptable round-trip latency [15].
const Deadline = 20 * time.Millisecond

// Deployment selects the infrastructure the game session runs on.
type Deployment int

const (
	// DeployBaseline is the measured deployment: public 5G, central UPF
	// in Vienna, the trajectory service in the cloud.
	DeployBaseline Deployment = iota
	// DeployPeered adds local peering (Section V-A): the service is
	// local, but sessions still anchor at the central UPF.
	DeployPeered
	// DeployEdgeUPF anchors at the Klagenfurt edge UPF with a MEC-hosted
	// trajectory service and a URLLC slice (Section V-B).
	DeployEdgeUPF
	// DeploySixG is the 6G target: edge UPF, SmartNIC datapath, 6G radio.
	DeploySixG

	// DeployNone is the explicit "no AR session" point: sweep axes use it
	// to include a plain ping campaign next to AR-mode scenarios. Run and
	// NewSampler reject it.
	DeployNone Deployment = -1
)

var deployNames = map[Deployment]string{
	DeployBaseline: "5G-baseline",
	DeployPeered:   "5G-local-peering",
	DeployEdgeUPF:  "5G-edge-upf",
	DeploySixG:     "6G-edge",
	DeployNone:     "none",
}

func (d Deployment) String() string {
	if s, ok := deployNames[d]; ok {
		return s
	}
	return fmt.Sprintf("Deployment(%d)", int(d))
}

// DeploymentByName resolves a deployment from its String form (including
// "none" for DeployNone).
func DeploymentByName(name string) (Deployment, bool) {
	for d, n := range deployNames {
		if n == name {
			return d, true
		}
	}
	return 0, false
}

// Deployments lists all scenarios in presentation order.
var Deployments = []Deployment{DeployBaseline, DeployPeered, DeployEdgeUPF, DeploySixG}

// Config parameterizes a game session.
type Config struct {
	Seed       uint64
	Deployment Deployment
	Duration   time.Duration // virtual play time (default 60 s)
	CellA      string        // player A's cell (default "C2")
	CellB      string        // player B's cell (default "E3")
}

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = time.Minute
	}
	if c.CellA == "" {
		c.CellA = "C2"
	}
	if c.CellB == "" {
		c.CellB = "E3"
	}
	return c
}

// Report summarizes a session.
type Report struct {
	Deployment      Deployment
	Frames          int
	DeadlineHitRate float64 // fraction of frames within the 20 ms budget
	MeanM2P         time.Duration
	P95M2P          time.Duration
	GhostHits       int // throw events resolved against a stale pose
	Throws          int
	Playable        bool // hit rate >= 0.99 (one dropped frame/second at 60 FPS)
}

func (r Report) String() string {
	return fmt.Sprintf("%s: %d frames, %.1f%% in budget, mean %.1f ms, p95 %.1f ms, %d/%d ghost hits",
		r.Deployment, r.Frames, 100*r.DeadlineHitRate,
		float64(r.MeanM2P)/float64(time.Millisecond),
		float64(r.P95M2P)/float64(time.Millisecond),
		r.GhostHits, r.Throws)
}

// session holds the resolved infrastructure for one run.
type session struct {
	up        *corenet.UserPlane
	upf       *corenet.UPF
	prof      *ran.Profile
	grid      *geo.Grid
	density   *geo.DensityModel
	condA     ran.Conditions
	condB     ran.Conditions
	pathA     corenet.SessionPath
	pathB     corenet.SessionPath
	offered   float64
	extraProc time.Duration // trajectory service processing per event
}

// conditions resolves the radio conditions a player experiences in a
// cell.
func (s *session) conditions(c geo.CellID) ran.Conditions {
	return ran.Conditions{Load: s.density.LoadFactor(c), SiteKm: geo.NearestSiteKm(s.grid, c)}
}

func newSession(cfg Config) (*session, error) {
	ce := topo.BuildCentralEurope()
	if cfg.Deployment == DeployPeered || cfg.Deployment == DeploySixG {
		ce.EnableLocalPeering()
	}
	up := corenet.NewUserPlane(ce)
	grid := geo.NewKlagenfurtGrid()
	density := geo.NewKlagenfurtDensity(grid)

	cellA, err := geo.ParseCellID(cfg.CellA)
	if err != nil {
		return nil, err
	}
	cellB, err := geo.ParseCellID(cfg.CellB)
	if err != nil {
		return nil, err
	}

	s := &session{up: up, grid: grid, density: density, offered: 0.3,
		extraProc: 2 * time.Millisecond}
	s.condA = s.conditions(cellA)
	s.condB = s.conditions(cellB)
	switch cfg.Deployment {
	case DeployBaseline, DeployPeered:
		s.upf = up.Central
		s.prof = ran.Profile5G
		svc := ce.ServiceUni // trajectory service at the university edge host
		if cfg.Deployment == DeployBaseline {
			svc = ce.ExoscaleVie // cloud-hosted service
		}
		if s.pathA, err = up.Establish(s.upf, svc); err != nil {
			return nil, err
		}
		s.pathB = s.pathA
	case DeployEdgeUPF, DeploySixG:
		s.upf = up.Edge
		s.prof = ran.Profile5GURLLC
		if cfg.Deployment == DeploySixG {
			s.upf = &corenet.UPF{Name: "edge-smartnic", Host: ce.UPFEdgeKlu,
				Datapath: corenet.SmartNICDatapath, MEC: true}
			s.prof = ran.Profile6G
		}
		if s.pathA, err = up.Establish(s.upf, nil); err != nil {
			return nil, err
		}
		s.pathB = s.pathA
	default:
		return nil, fmt.Errorf("argame: unknown deployment %v", cfg.Deployment)
	}
	return s, nil
}

// motionToPhoton samples one frame's end-to-end chain: player A's pose
// uplink to the trajectory service, service processing, and the rendered
// result's downlink into player B's stream. Each radio leg contributes
// half its round trip per direction.
func (s *session) motionToPhoton(rng *des.RNG) time.Duration {
	return s.m2p(rng, s.condA, s.condB)
}

// m2p is motionToPhoton with the player conditions chosen per call.
func (s *session) m2p(rng *des.RNG, condA, condB ran.Conditions) time.Duration {
	upLeg := s.up.SampleRTT(rng, s.prof, condA, s.pathA, s.offered) / 2
	downLeg := s.up.SampleRTT(rng, s.prof, condB, s.pathB, s.offered) / 2
	return upLeg + s.extraProc + downLeg
}

// Sampler exposes one deployment's motion-to-photon chain for arbitrary
// player-A cells: the campaign's AR-session mode drags player A through
// the sector grid while player B stays at the session's home cell, and
// folds every sampled chain into the per-cell latency grid. The
// infrastructure (topology, UPF, slice, service placement) is resolved
// once at construction; per-cell radio conditions resolve lazily. A
// Sampler is deterministic for a given deployment but not safe for
// concurrent use — every campaign run owns its own.
type Sampler struct {
	s    *session
	cond map[geo.CellID]ran.Conditions
}

// NewSampler resolves the session infrastructure for a deployment.
func NewSampler(d Deployment) (*Sampler, error) {
	if d == DeployNone {
		return nil, fmt.Errorf("argame: sampler needs a concrete deployment, not %v", d)
	}
	s, err := newSession(Config{Deployment: d}.withDefaults())
	if err != nil {
		return nil, err
	}
	return &Sampler{s: s, cond: make(map[geo.CellID]ran.Conditions)}, nil
}

// M2P samples one motion-to-photon chain with player A in the given
// cell. The cell must belong to the Klagenfurt sector grid.
func (sp *Sampler) M2P(rng *des.RNG, cell geo.CellID) (time.Duration, error) {
	cond, ok := sp.cond[cell]
	if !ok {
		if !sp.s.grid.Contains(cell) {
			return 0, fmt.Errorf("argame: player cell %v outside the sector grid", cell)
		}
		cond = sp.s.conditions(cell)
		sp.cond[cell] = cond
	}
	return sp.s.m2p(rng, cond, sp.s.condB), nil
}

// Run simulates one game session.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	s, err := newSession(cfg)
	if err != nil {
		return Report{}, err
	}

	sim := des.NewSimulator(cfg.Seed)
	frameRng := sim.Stream("frames")
	throwRng := sim.Stream("throws")

	rep := Report{Deployment: cfg.Deployment}
	m2p := stats.NewSample(int(cfg.Duration/FrameInterval) + 1)

	// Frame cycle: every FrameInterval, the motion-to-photon chain runs.
	frames := sim.Every(0, FrameInterval, func() {
		d := s.motionToPhoton(frameRng)
		m2p.AddDuration(d)
		rep.Frames++
	})
	// Throws: a Poisson-ish event stream (one throw every ~2 s). A throw
	// resolved against a pose older than the budget is a ghost hit.
	throws := sim.Every(time.Second, 2*time.Second, func() {
		rep.Throws++
		if s.motionToPhoton(throwRng) > Deadline {
			rep.GhostHits++
		}
	})
	if err := sim.RunUntil(cfg.Duration); err != nil {
		return Report{}, err
	}
	frames.Stop()
	throws.Stop()

	if rep.Frames == 0 {
		return Report{}, fmt.Errorf("argame: no frames simulated")
	}
	within := 0
	for _, v := range m2p.Values() {
		if v <= float64(Deadline)/float64(time.Millisecond) {
			within++
		}
	}
	rep.DeadlineHitRate = float64(within) / float64(rep.Frames)
	rep.MeanM2P = time.Duration(m2p.Mean() * float64(time.Millisecond))
	rep.P95M2P = time.Duration(m2p.Quantile(0.95) * float64(time.Millisecond))
	rep.Playable = rep.DeadlineHitRate >= 0.99
	return rep, nil
}

// RunAll executes every deployment with the same seed and duration.
func RunAll(seed uint64, duration time.Duration) ([]Report, error) {
	out := make([]Report, 0, len(Deployments))
	for _, d := range Deployments {
		rep, err := Run(Config{Seed: seed, Deployment: d, Duration: duration})
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}
