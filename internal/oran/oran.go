// Package oran models the mobile control plane and its Section V-C
// enhancements: the traditional split between RAN mobility management and
// core session handling, the O-RAN Near-RT RIC, the consolidated
// edge control plane of Corici [38] (session + mobility management moved
// into the Near-RT RIC), and the hybrid design the paper recommends.
//
// Control procedures are decomposed into signalling round trips against
// three anchor tiers derived from the wired topology: the edge site
// (collocated with the gNB aggregation), the regional RIC (Klagenfurt),
// and the central core (Vienna). Architectures differ in how many round
// trips each procedure needs against each tier.
package oran

import (
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/routing"
	"repro/internal/topo"
)

// Architecture selects a control-plane design.
type Architecture int

const (
	// ArchTraditional is the 3GPP split: RAN handles radio mobility, all
	// session/policy state lives in the central core (AMF/SMF/PCF).
	ArchTraditional Architecture = iota
	// ArchORAN adds a Near-RT RIC at the regional site: radio resource
	// and mobility decisions move to the RIC; session anchoring and
	// policy still require the central core.
	ArchORAN
	// ArchConsolidated implements Corici [38]: subscriber policy, session
	// and mobility management are consolidated in the Near-RT RIC at the
	// network edge; the core is only informed asynchronously.
	ArchConsolidated
	// ArchHybrid is the paper's recommendation: consolidated fast-path
	// decisions at the edge, with centralized policy control retained for
	// procedures that genuinely need global state (initial attach,
	// charging); real-time scheduling constraints keep some functions
	// central.
	ArchHybrid
)

var archNames = map[Architecture]string{
	ArchTraditional:  "traditional",
	ArchORAN:         "oran-near-rt-ric",
	ArchConsolidated: "consolidated-edge",
	ArchHybrid:       "hybrid",
}

func (a Architecture) String() string {
	if s, ok := archNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Architecture(%d)", int(a))
}

// Architectures lists all designs in presentation order.
var Architectures = []Architecture{ArchTraditional, ArchORAN, ArchConsolidated, ArchHybrid}

// Procedure is a control-plane transaction.
type Procedure int

const (
	ProcHandover     Procedure = iota // Xn/N2 handover with path switch
	ProcSessionSetup                  // PDU session establishment
	ProcPolicyUpdate                  // QoS flow / policy modification
)

var procNames = map[Procedure]string{
	ProcHandover:     "handover",
	ProcSessionSetup: "session-setup",
	ProcPolicyUpdate: "policy-update",
}

func (p Procedure) String() string {
	if s, ok := procNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Procedure(%d)", int(p))
}

// Procedures lists all modelled procedures.
var Procedures = []Procedure{ProcHandover, ProcSessionSetup, ProcPolicyUpdate}

// ControlPlane binds an architecture to concrete signalling latencies.
type ControlPlane struct {
	Arch Architecture
	// EdgeRTT: gNB aggregation <-> edge compute (collocated, ~1 km).
	EdgeRTT time.Duration
	// RegionalRTT: gNB aggregation <-> regional RIC site.
	RegionalRTT time.Duration
	// CoreRTT: gNB aggregation <-> central core in Vienna.
	CoreRTT time.Duration
	// NFProc is the per-network-function transaction processing time.
	NFProc time.Duration
}

// NewControlPlane derives the tier latencies from the reference topology.
func NewControlPlane(ce *topo.CentralEurope, arch Architecture) (*ControlPlane, error) {
	pr := routing.NewPolicyRouter(ce.Net)
	edge, err := pr.Route(ce.AggKlu, ce.UPFEdgeKlu)
	if err != nil {
		return nil, fmt.Errorf("oran: edge path: %w", err)
	}
	core, err := pr.Route(ce.AggKlu, ce.UPFVienna)
	if err != nil {
		return nil, fmt.Errorf("oran: core path: %w", err)
	}
	return &ControlPlane{
		Arch:        arch,
		EdgeRTT:     edge.RTT(),
		RegionalRTT: edge.RTT(), // the RIC shares the edge site in Klagenfurt
		CoreRTT:     core.RTT(),
		NFProc:      500 * time.Microsecond,
	}, nil
}

// recipe is the signalling shape of one procedure under one architecture:
// round trips against each tier plus NF transactions.
type recipe struct {
	edge, regional, core int // round trips per tier
	nfs                  int // NF transaction processing steps
	asyncCore            int // non-blocking core notifications (not on the critical path)
}

func (cp *ControlPlane) recipeFor(p Procedure) recipe {
	switch cp.Arch {
	case ArchTraditional:
		switch p {
		case ProcHandover:
			// Measurement report handling in the RAN, then N2 path switch
			// through AMF and SMF->UPF update: three core round trips.
			return recipe{core: 3, nfs: 4}
		case ProcSessionSetup:
			// AMF -> SMF -> PCF -> UPF chain: five core round trips.
			return recipe{core: 5, nfs: 6}
		case ProcPolicyUpdate:
			return recipe{core: 2, nfs: 3}
		}
	case ArchORAN:
		switch p {
		case ProcHandover:
			// The Near-RT RIC decides locally; only the path switch still
			// touches the central core.
			return recipe{regional: 2, core: 1, nfs: 3}
		case ProcSessionSetup:
			// Session anchoring remains central.
			return recipe{regional: 1, core: 4, nfs: 5}
		case ProcPolicyUpdate:
			// QoS enforcement via the RIC's A1/E2 policies, one core sync.
			return recipe{regional: 1, core: 1, nfs: 2}
		}
	case ArchConsolidated:
		switch p {
		case ProcHandover:
			return recipe{regional: 2, nfs: 2, asyncCore: 1}
		case ProcSessionSetup:
			return recipe{regional: 3, nfs: 3, asyncCore: 1}
		case ProcPolicyUpdate:
			return recipe{regional: 1, nfs: 1, asyncCore: 1}
		}
	case ArchHybrid:
		switch p {
		case ProcHandover:
			return recipe{regional: 2, nfs: 2, asyncCore: 1}
		case ProcSessionSetup:
			// Initial attach policy still needs the core once.
			return recipe{regional: 2, core: 1, nfs: 3}
		case ProcPolicyUpdate:
			return recipe{regional: 1, nfs: 1, asyncCore: 1}
		}
	}
	panic(fmt.Sprintf("oran: no recipe for %v/%v", cp.Arch, p))
}

// Latency returns the expected critical-path latency of a procedure.
func (cp *ControlPlane) Latency(p Procedure) time.Duration {
	r := cp.recipeFor(p)
	d := time.Duration(r.edge)*cp.EdgeRTT +
		time.Duration(r.regional)*cp.RegionalRTT +
		time.Duration(r.core)*cp.CoreRTT +
		time.Duration(r.nfs)*cp.NFProc
	return d
}

// Sample draws one procedure latency with signalling jitter (10 %
// multiplicative, floor at half the mean).
func (cp *ControlPlane) Sample(rng *des.RNG, p Procedure) time.Duration {
	mean := float64(cp.Latency(p))
	v := rng.Normal(mean, 0.1*mean)
	if v < mean/2 {
		v = mean / 2
	}
	return time.Duration(v)
}

// NearRTBudget is the O-RAN Near-RT RIC control-loop window: decisions
// must land between 10 ms and 1 s [36].
var NearRTBudget = [2]time.Duration{10 * time.Millisecond, time.Second}

// WithinNearRT reports whether a control loop period fits the Near-RT
// RIC's operating range.
func WithinNearRT(d time.Duration) bool {
	return d >= NearRTBudget[0] && d <= NearRTBudget[1]
}
