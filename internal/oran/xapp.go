package oran

import (
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/geo"
)

// This file implements a concrete Near-RT RIC control loop: xApps
// subscribe to E2 load reports from the cells and push control actions
// (mobility load balancing via handover-offset changes) back. It is the
// executable form of the Section V-C claim that the RIC's 10 ms - 1 s
// window suffices for dynamic frequency and mobility management, while
// anything faster must stay in the RAN scheduler.

// E2Report is one cell's periodic metric report to the RIC.
type E2Report struct {
	Cell geo.CellID
	Load float64 // current load factor in [0, ~1.2] (can oversaturate)
	At   time.Duration
}

// E2Control is a control action issued by an xApp.
type E2Control struct {
	Cell geo.CellID
	// OffsetDelta adjusts the cell's handover offset: positive values
	// make the cell less attractive, shedding load to neighbours.
	OffsetDelta float64
}

// XApp is a Near-RT RIC application.
type XApp interface {
	Name() string
	// OnReports receives one full reporting round and returns control
	// actions to apply.
	OnReports(reports []E2Report) []E2Control
}

// LoadBalancer is the classic mobility-load-balancing xApp: when the
// spread between the hottest and coolest cell exceeds Threshold, it
// shifts handover offsets to move load downhill.
type LoadBalancer struct {
	Threshold float64 // act when max-min load exceeds this
	Step      float64 // offset step per action
}

// Name implements XApp.
func (lb *LoadBalancer) Name() string { return "mobility-load-balancer" }

// OnReports implements XApp.
func (lb *LoadBalancer) OnReports(reports []E2Report) []E2Control {
	if len(reports) == 0 {
		return nil
	}
	hot, cool := reports[0], reports[0]
	for _, r := range reports[1:] {
		if r.Load > hot.Load {
			hot = r
		}
		if r.Load < cool.Load {
			cool = r
		}
	}
	if hot.Load-cool.Load <= lb.Threshold {
		return nil
	}
	return []E2Control{
		{Cell: hot.Cell, OffsetDelta: +lb.Step},
		{Cell: cool.Cell, OffsetDelta: -lb.Step},
	}
}

// RICCell is the RIC's view of one cell.
type RICCell struct {
	Cell   geo.CellID
	Load   float64
	Offset float64 // accumulated handover offset
}

// RIC runs xApps against a set of cells inside a discrete-event
// simulation. Load dynamics: each reporting period, a fraction of the
// offset difference between neighbouring cells flows from the more
// to the less attractive cell (offset-directed handovers).
type RIC struct {
	Arch   Architecture
	Period time.Duration // E2 reporting period; must be within Near-RT
	cells  []*RICCell
	xapps  []XApp
	cp     *ControlPlane

	// Telemetry.
	Rounds        int
	Actions       int
	LoopLatencies []time.Duration
}

// NewRIC builds a RIC over the given cells with initial loads.
func NewRIC(cp *ControlPlane, period time.Duration, cells []RICCell) (*RIC, error) {
	if !WithinNearRT(period) {
		return nil, fmt.Errorf("oran: reporting period %v outside the Near-RT window %v-%v",
			period, NearRTBudget[0], NearRTBudget[1])
	}
	r := &RIC{Arch: cp.Arch, Period: period, cp: cp}
	for i := range cells {
		c := cells[i]
		r.cells = append(r.cells, &c)
	}
	return r, nil
}

// Register adds an xApp.
func (r *RIC) Register(x XApp) { r.xapps = append(r.xapps, x) }

// LoadSpread returns max-min load across cells.
func (r *RIC) LoadSpread() float64 {
	if len(r.cells) == 0 {
		return 0
	}
	min, max := r.cells[0].Load, r.cells[0].Load
	for _, c := range r.cells[1:] {
		if c.Load < min {
			min = c.Load
		}
		if c.Load > max {
			max = c.Load
		}
	}
	return max - min
}

// Run executes the control loop for the given horizon on sim.
func (r *RIC) Run(sim *des.Simulator, horizon time.Duration) error {
	rng := sim.Stream("ric")
	ticker := sim.Every(r.Period, r.Period, func() {
		r.Rounds++
		// Collect E2 reports (one regional round trip to gather).
		reports := make([]E2Report, len(r.cells))
		for i, c := range r.cells {
			reports[i] = E2Report{Cell: c.Cell, Load: c.Load, At: sim.Now()}
		}
		// Invoke xApps; each action costs a policy-update procedure.
		var loop time.Duration = r.cp.RegionalRTT // E2 report collection
		for _, x := range r.xapps {
			for _, ctl := range x.OnReports(reports) {
				r.Actions++
				loop += r.cp.Sample(rng, ProcPolicyUpdate)
				for _, c := range r.cells {
					if c.Cell == ctl.Cell {
						c.Offset += ctl.OffsetDelta
					}
				}
			}
		}
		r.LoopLatencies = append(r.LoopLatencies, loop)

		// Load dynamics: offset-directed handovers drain load from
		// high-offset cells into low-offset ones, plus mild noise.
		r.flow(rng)
	})
	err := sim.RunUntil(horizon)
	ticker.Stop()
	return err
}

// flow applies one period of offset-directed load movement.
func (r *RIC) flow(rng *des.RNG) {
	if len(r.cells) < 2 {
		return
	}
	const mobilityRate = 0.15 // share of offset-pressure converted per period
	// Compute mean offset; load flows from above-mean-offset cells to
	// below-mean ones proportionally.
	var meanOff float64
	for _, c := range r.cells {
		meanOff += c.Offset
	}
	meanOff /= float64(len(r.cells))
	var shed float64
	receivers := 0
	for _, c := range r.cells {
		if c.Offset > meanOff {
			amount := mobilityRate * (c.Offset - meanOff) * c.Load
			if amount > c.Load/2 {
				amount = c.Load / 2
			}
			c.Load -= amount
			shed += amount
		} else {
			receivers++
		}
	}
	if receivers > 0 {
		for _, c := range r.cells {
			if c.Offset <= meanOff {
				c.Load += shed / float64(receivers)
			}
		}
	}
	for _, c := range r.cells {
		c.Load += rng.Normal(0, 0.004)
		if c.Load < 0 {
			c.Load = 0
		}
	}
}

// MaxLoopLatency returns the slowest observed control loop.
func (r *RIC) MaxLoopLatency() time.Duration {
	var max time.Duration
	for _, l := range r.LoopLatencies {
		if l > max {
			max = l
		}
	}
	return max
}
