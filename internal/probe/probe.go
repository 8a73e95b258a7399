// Package probe implements the RIPE-Atlas-style measurement engine the
// campaign uses: ping round trips between wired probes, mobile pings
// through the 5G user plane, and traceroute with per-hop RTTs that
// reproduce the Table I output format.
package probe

import (
	"fmt"
	"time"

	"repro/internal/corenet"
	"repro/internal/des"
	"repro/internal/ran"
	"repro/internal/routing"
	"repro/internal/topo"
)

// Engine performs measurements over a user-plane deployment.
type Engine struct {
	UP      *corenet.UserPlane
	Profile *ran.Profile
	// OfferedMpps is the UPF datapath load during the measurement.
	OfferedMpps float64
}

// NewEngine returns a measurement engine at the default datapath load.
func NewEngine(up *corenet.UserPlane, profile *ran.Profile) *Engine {
	return &Engine{UP: up, Profile: profile, OfferedMpps: 0.3}
}

// WiredJitterUs is the per-hop one-way jitter stddev (microseconds)
// applied to wired legs.
const WiredJitterUs = 40.0

// WiredJitter draws the jitter of a wired leg of the given hop count:
// one normal draw (two RNG values) for a leg with hops, none without.
// Every wired and mobile RTT of an Engine ends with it, so a caller
// that resolved a leg's fixed RTT and hop count once can draw the same
// RTT as the Engine by adding this draw last.
func WiredJitter(rng *des.RNG, hops int) time.Duration {
	if hops <= 0 {
		return 0
	}
	us := rng.Normal(0, WiredJitterUs*float64(hops))
	if us < 0 {
		us = -us
	}
	return time.Duration(us) * time.Microsecond
}

// WiredPath returns the policy-routed path a wired ping between two
// hosts takes, or an error when there is none.
func (e *Engine) WiredPath(from, to *topo.Node) (routing.Path, error) {
	p, err := e.UP.Router.Route(from, to)
	if err != nil {
		return routing.Path{}, fmt.Errorf("probe: wired ping: %w", err)
	}
	return p, nil
}

// WiredRTTOn measures one wired round trip over a path resolved by
// WiredPath: its fixed RTT plus per-hop jitter. A caller pinging one
// pair many times routes it once.
func (e *Engine) WiredRTTOn(rng *des.RNG, p routing.Path) time.Duration { //sweepvet:allow(deadapi) oracle for campaign's TestWorldLegsMatchEngine
	return p.RTT() + WiredJitter(rng, p.Hops())
}

// MobileRTTOn measures one mobile round trip over a session path
// resolved by UserPlane.Establish: a radio and datapath sample plus the
// wired legs' jitter. A caller pinging one target many times
// establishes its session once.
func (e *Engine) MobileRTTOn(rng *des.RNG, cond ran.Conditions, sp corenet.SessionPath) time.Duration { //sweepvet:allow(deadapi) oracle for campaign's TestWorldLegsMatchEngine
	rtt := e.UP.SampleRTT(rng, e.Profile, cond, sp, e.OfferedMpps)
	return rtt + WiredJitter(rng, sp.Backhaul.Hops()+sp.Breakout.Hops())
}

// Hop is one line of a traceroute.
type Hop struct {
	Index int
	Node  *topo.Node
	RTT   time.Duration
}

// String renders the hop in the paper's Table I style.
func (h Hop) String() string {
	return fmt.Sprintf("%d  %s [%s]  %.1f ms", h.Index, h.Node.Name, h.Node.Addr,
		float64(h.RTT)/float64(time.Millisecond))
}

// Trace is a full traceroute result from a mobile UE.
type Trace struct {
	Hops     []Hop
	RadioLeg time.Duration // radio contribution included in every hop RTT
	Total    time.Duration // RTT of the final hop
	DistKm   float64       // wired kilometres travelled one-way
	Cities   []string      // deduplicated city sequence (Figure 4)
}

// Traceroute runs a mobile traceroute towards dst. The GTP-U tunnel hides
// the operator's transport: the first visible hop is the UPF/CGNAT
// gateway, exactly as in Table I.
func (e *Engine) Traceroute(rng *des.RNG, cond ran.Conditions, upf *corenet.UPF,
	dst *topo.Node) (Trace, error) {
	sp, err := e.UP.Establish(upf, dst)
	if err != nil {
		return Trace{}, err
	}
	radio := e.Profile.SampleRTT(rng, cond)
	base := radio + sp.Backhaul.RTT() + 2*upf.Datapath.Latency(e.OfferedMpps)

	tr := Trace{RadioLeg: radio}
	tr.DistKm = sp.Backhaul.DistKm() + sp.Breakout.DistKm()

	// Hop 1: the UPF itself (first IP hop past the tunnel).
	tr.Hops = append(tr.Hops, Hop{Index: 1, Node: upf.Host,
		RTT: base + WiredJitter(rng, sp.Backhaul.Hops())})

	// Subsequent hops walk the breakout path.
	var cum time.Duration
	for i := 1; i < len(sp.Breakout.Nodes); i++ {
		cum += sp.Breakout.Links[i-1].Delay() + sp.Breakout.Nodes[i].ProcDelay
		tr.Hops = append(tr.Hops, Hop{
			Index: i + 1,
			Node:  sp.Breakout.Nodes[i],
			RTT:   base + 2*cum + WiredJitter(rng, i),
		})
	}
	tr.Total = tr.Hops[len(tr.Hops)-1].RTT

	seen := func(city string, cities []string) bool {
		return len(cities) > 0 && cities[len(cities)-1] == city
	}
	for _, h := range tr.Hops {
		if h.Node.City != "" && !seen(h.Node.City, tr.Cities) {
			tr.Cities = append(tr.Cities, h.Node.City)
		}
	}
	return tr, nil
}
