// Package corenet models the 5G/6G core user plane: UPF (User Plane
// Function) anchors, GTP-U backhaul, per-packet datapath processing with
// an optional SmartNIC fast path, and UPF selection policies.
//
// It implements the Section V-B machinery of the paper:
//
//   - a central UPF in Vienna (the deployment the campaign measured,
//     responsible for the 235 km tromboning of every local packet);
//   - an edge UPF collocated with the Klagenfurt aggregation site with a
//     MEC host for local breakout (the 5-6.2 ms configuration of
//     Barrachina [30] and Goshi [31]);
//   - dynamic per-flow UPF selection: latency-sensitive flows anchor at
//     the edge while bulk flows are offloaded to the central cloud UPF;
//   - a SmartNIC datapath (Jain [32], Panda [33]): bypassing host memory
//     and the PCIe bus doubles throughput and cuts per-packet processing
//     latency by a factor of 3.75.
package corenet

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/des"
	"repro/internal/ran"
	"repro/internal/routing"
	"repro/internal/topo"
)

// DatapathSpec describes a UPF packet-processing implementation.
type DatapathSpec struct {
	Name string
	// PerPacket is the unloaded per-packet processing latency.
	PerPacket time.Duration
	// CapacityMpps is the saturation throughput in million packets/s.
	CapacityMpps float64
}

// HostDatapath is a conventional kernel/DPDK UPF bounced through host
// memory and the PCIe bus.
var HostDatapath = DatapathSpec{
	Name:         "host",
	PerPacket:    45 * time.Microsecond,
	CapacityMpps: 1.6,
}

// SmartNICDatapath processes GTP-U entirely on the NIC: x2 throughput and
// a 3.75x lower packet latency than HostDatapath (Jain [32], [33]).
var SmartNICDatapath = DatapathSpec{
	Name:         "smartnic",
	PerPacket:    12 * time.Microsecond,
	CapacityMpps: 3.2,
}

// Latency returns the expected per-packet processing latency at the given
// offered load (M/M/1-style service-time inflation; clamped near
// saturation to keep the model finite).
func (d DatapathSpec) Latency(offeredMpps float64) time.Duration {
	rho := 0.0
	if d.CapacityMpps > 0 {
		rho = offeredMpps / d.CapacityMpps
	}
	if rho < 0 {
		rho = 0
	}
	if rho > 0.97 {
		rho = 0.97
	}
	return time.Duration(float64(d.PerPacket) / (1 - rho))
}

// UPF is a deployed user-plane anchor.
type UPF struct {
	Name     string
	Host     *topo.Node // position in the wired topology
	Datapath DatapathSpec
	// MEC reports whether an edge-compute host is collocated: traffic to
	// an edge service breaks out locally with no further wired path.
	MEC bool
	// offered tracks assigned flow load for selection decisions.
	offeredMpps float64
}

// OfferedMpps returns the currently assigned datapath load.
func (u *UPF) OfferedMpps() float64 { return u.offeredMpps }

func (u *UPF) String() string { return fmt.Sprintf("UPF(%s@%s)", u.Name, u.Host.City) }

// SelectionPolicy decides which UPF anchors a flow.
type SelectionPolicy int

const (
	// SelectCentral anchors everything at the central UPF: the deployment
	// the paper's campaign measured.
	SelectCentral SelectionPolicy = iota
	// SelectEdge anchors everything at the edge UPF.
	SelectEdge
	// SelectDynamic sends latency-sensitive flows to the edge (subject to
	// capacity) and bulk flows to the central cloud UPF.
	SelectDynamic
)

var policyNames = map[SelectionPolicy]string{
	SelectCentral: "central",
	SelectEdge:    "edge",
	SelectDynamic: "dynamic",
}

func (p SelectionPolicy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("SelectionPolicy(%d)", int(p))
}

// UserPlane binds the UPF deployment to the reference topology.
type UserPlane struct {
	CE      *topo.CentralEurope
	Router  *routing.PolicyRouter
	Central *UPF
	Edge    *UPF
}

// NewUserPlane builds the paper's deployment: host-datapath central UPF
// in Vienna, edge UPF (initially host datapath) in Klagenfurt.
func NewUserPlane(ce *topo.CentralEurope) *UserPlane {
	return &UserPlane{
		CE:     ce,
		Router: routing.NewPolicyRouter(ce.Net),
		Central: &UPF{
			Name: "central-vie", Host: ce.UPFVienna, Datapath: HostDatapath,
		},
		Edge: &UPF{
			Name: "edge-klu", Host: ce.UPFEdgeKlu, Datapath: HostDatapath, MEC: true,
		},
	}
}

// ErrNoBreakout is returned when a session's destination is unreachable
// from the selected UPF.
var ErrNoBreakout = errors.New("corenet: destination unreachable from UPF")

// SessionPath describes the wired legs of a PDU session through a UPF.
type SessionPath struct {
	UPF      *UPF
	Backhaul routing.Path // gNB aggregation -> UPF (inside the GTP tunnel)
	Breakout routing.Path // UPF -> destination (empty for MEC-local services)
}

// WiredRTT returns the round-trip wired delay of the session, including
// the UPF datapath at the given offered load (applied once per
// direction).
func (sp SessionPath) WiredRTT(offeredMpps float64) time.Duration {
	return sp.Backhaul.RTT() + sp.Breakout.RTT() + 2*sp.UPF.Datapath.Latency(offeredMpps)
}

// Establish computes the session legs for a UE attached at the Klagenfurt
// aggregation site, anchored at upf, towards dst. When dst is nil and the
// UPF hosts MEC, the service is local to the UPF (zero breakout).
func (up *UserPlane) Establish(upf *UPF, dst *topo.Node) (SessionPath, error) {
	backhaul, err := up.Router.Route(up.CE.AggKlu, upf.Host)
	if err != nil {
		return SessionPath{}, fmt.Errorf("corenet: backhaul: %w", err)
	}
	sp := SessionPath{UPF: upf, Backhaul: backhaul}
	if dst == nil || dst == upf.Host {
		if !upf.MEC {
			return SessionPath{}, fmt.Errorf("%w: %s has no MEC host", ErrNoBreakout, upf.Name)
		}
		return sp, nil
	}
	breakout, err := up.Router.Route(upf.Host, dst)
	if err != nil {
		return SessionPath{}, fmt.Errorf("%w: %v", ErrNoBreakout, err)
	}
	sp.Breakout = breakout
	return sp, nil
}

// SampleRTT draws one end-to-end round trip: radio leg plus wired legs
// plus datapath.
func (up *UserPlane) SampleRTT(rng *des.RNG, prof *ran.Profile, cond ran.Conditions,
	sp SessionPath, offeredMpps float64) time.Duration {
	return prof.SampleRTT(rng, cond) + sp.WiredRTT(offeredMpps)
}

// MeanRTT returns the analytical expectation of SampleRTT.
func (up *UserPlane) MeanRTT(prof *ran.Profile, cond ran.Conditions,
	sp SessionPath, offeredMpps float64) time.Duration {
	return prof.MeanRTT(cond) + sp.WiredRTT(offeredMpps)
}

// --- Dynamic per-flow selection ------------------------------------------

// Flow is a unit of user-plane demand for UPF selection.
type Flow struct {
	ID        int
	Sensitive bool    // latency-critical (edge AI) vs bulk
	RateMpps  float64 // offered packet rate
}

// Assignment maps flow IDs to their anchoring UPF.
type Assignment map[int]*UPF

// Assign implements the selection policies. Dynamic selection sorts
// sensitive flows first (largest rate first for bin-packing) and anchors
// them at the edge until the edge datapath would saturate; everything
// else goes to the central UPF. Assign resets and updates both UPFs'
// offered load.
func (up *UserPlane) Assign(policy SelectionPolicy, flows []Flow) Assignment {
	up.Central.offeredMpps = 0
	up.Edge.offeredMpps = 0
	out := make(Assignment, len(flows))
	switch policy {
	case SelectCentral:
		for _, f := range flows {
			out[f.ID] = up.Central
			up.Central.offeredMpps += f.RateMpps
		}
	case SelectEdge:
		for _, f := range flows {
			out[f.ID] = up.Edge
			up.Edge.offeredMpps += f.RateMpps
		}
	case SelectDynamic:
		ordered := append([]Flow(nil), flows...)
		sort.SliceStable(ordered, func(i, j int) bool {
			if ordered[i].Sensitive != ordered[j].Sensitive {
				return ordered[i].Sensitive
			}
			if ordered[i].RateMpps != ordered[j].RateMpps {
				return ordered[i].RateMpps > ordered[j].RateMpps
			}
			return ordered[i].ID < ordered[j].ID
		})
		const headroom = 0.85 // keep the edge datapath out of saturation
		budget := up.Edge.Datapath.CapacityMpps * headroom
		for _, f := range ordered {
			if f.Sensitive && up.Edge.offeredMpps+f.RateMpps <= budget {
				out[f.ID] = up.Edge
				up.Edge.offeredMpps += f.RateMpps
			} else {
				out[f.ID] = up.Central
				up.Central.offeredMpps += f.RateMpps
			}
		}
	default:
		panic("corenet: unknown selection policy")
	}
	return out
}
