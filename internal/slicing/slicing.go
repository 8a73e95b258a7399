// Package slicing models end-to-end network slicing and the network
// hypervisor placement problem the paper discusses in Section V-C:
// placement strategies optimizing latency [41], resilience [42] and load
// balance [43], and the reactive-vs-predictive reconfiguration behaviour
// the paper criticizes ("they typically operate in a reactive rather
// than predictive manner").
package slicing

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Slice is an end-to-end network slice specification.
type Slice struct {
	Name          string
	LatencyBudget time.Duration // end-to-end control/user budget
	MinGbps       float64       // reserved capacity
	Share         float64       // fraction of infrastructure resources
}

// Validate reports whether the slice specification is self-consistent.
func (s Slice) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("slicing: unnamed slice")
	}
	if s.LatencyBudget <= 0 {
		return fmt.Errorf("slicing: slice %s without latency budget", s.Name)
	}
	if s.Share <= 0 || s.Share > 1 {
		return fmt.Errorf("slicing: slice %s share %v out of (0,1]", s.Name, s.Share)
	}
	return nil
}

// --- Hypervisor placement -------------------------------------------------

// Site is a candidate hypervisor/controller location in an abstract
// metric space (kilometre coordinates; the experiments feed grid-local
// coordinates of the wired topology's router sites).
type Site struct {
	Name   string
	X, Y   float64 // km
	Demand float64 // control-plane demand originating here
}

func dist(a, b Site) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Strategy selects a placement objective.
type Strategy int

const (
	// StrategyLatency minimizes demand-weighted mean distance (k-median
	// greedy), the delay-aware placement of Killi [41] and Amjad [43].
	StrategyLatency Strategy = iota
	// StrategyResilience maximizes the minimum pairwise separation of the
	// chosen hypervisors (geographic diversity against regional failure),
	// in the spirit of Babarczi [42].
	StrategyResilience
	// StrategyLoadBalance minimizes the maximum demand assigned to any
	// hypervisor.
	StrategyLoadBalance

	// StrategyNone is the explicit "no placement" point: sweep axes use it
	// to include an unsliced scenario next to placed ones. Place rejects
	// it; callers translate it to "slicing disabled" before placing.
	StrategyNone Strategy = -1
)

// Strategies lists the placement strategies Place accepts, in
// presentation order. StrategyNone is deliberately absent.
var Strategies = []Strategy{StrategyLatency, StrategyResilience, StrategyLoadBalance}

var strategyNames = map[Strategy]string{
	StrategyLatency:     "latency",
	StrategyResilience:  "resilience",
	StrategyLoadBalance: "load-balance",
	StrategyNone:        "none",
}

func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// StrategyByName resolves a strategy from its String form (including
// "none" for StrategyNone).
func StrategyByName(name string) (Strategy, bool) {
	for s, n := range strategyNames {
		if n == name {
			return s, true
		}
	}
	return 0, false
}

// Placement is a chosen set of hypervisor sites with an assignment of
// every demand site to its serving hypervisor.
type Placement struct {
	Hypervisors []int // indices into the site slice
	Assign      []int // demand site index -> hypervisor site index
}

// Place chooses k hypervisor locations among sites using the strategy.
// All strategies are deterministic greedy heuristics.
func Place(sites []Site, k int, strategy Strategy) (Placement, error) {
	if k <= 0 || k > len(sites) {
		return Placement{}, fmt.Errorf("slicing: k=%d with %d sites", k, len(sites))
	}
	var chosen []int
	switch strategy {
	case StrategyLatency:
		chosen = greedyKMedian(sites, k)
	case StrategyResilience:
		chosen = greedyMaxMin(sites, k)
	case StrategyLoadBalance:
		chosen = greedyKMedian(sites, k) // start latency-aware, then rebalance
	default:
		return Placement{}, fmt.Errorf("slicing: unknown strategy %v", strategy)
	}
	p := Placement{Hypervisors: chosen}
	p.Assign = assignNearest(sites, chosen)
	if strategy == StrategyLoadBalance {
		p.Assign = rebalance(sites, chosen, p.Assign)
	}
	return p, nil
}

// greedyKMedian adds the site that most reduces demand-weighted distance.
func greedyKMedian(sites []Site, k int) []int {
	chosen := make([]int, 0, k)
	best := make([]float64, len(sites))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for len(chosen) < k {
		bestIdx, bestCost := -1, math.Inf(1)
		for cand := range sites {
			if contains(chosen, cand) {
				continue
			}
			var cost float64
			for i, s := range sites {
				d := math.Min(best[i], dist(s, sites[cand]))
				cost += s.Demand * d
			}
			if cost < bestCost {
				bestCost, bestIdx = cost, cand
			}
		}
		chosen = append(chosen, bestIdx)
		for i, s := range sites {
			best[i] = math.Min(best[i], dist(s, sites[bestIdx]))
		}
	}
	sort.Ints(chosen)
	return chosen
}

// greedyMaxMin starts from the highest-demand site and repeatedly adds
// the site farthest from the current set (farthest-point sampling).
func greedyMaxMin(sites []Site, k int) []int {
	start := 0
	for i, s := range sites {
		if s.Demand > sites[start].Demand {
			start = i
		}
	}
	chosen := []int{start}
	for len(chosen) < k {
		bestIdx, bestD := -1, -1.0
		for cand := range sites {
			if contains(chosen, cand) {
				continue
			}
			d := math.Inf(1)
			for _, c := range chosen {
				d = math.Min(d, dist(sites[cand], sites[c]))
			}
			if d > bestD {
				bestD, bestIdx = d, cand
			}
		}
		chosen = append(chosen, bestIdx)
	}
	sort.Ints(chosen)
	return chosen
}

func assignNearest(sites []Site, chosen []int) []int {
	assign := make([]int, len(sites))
	for i, s := range sites {
		bestIdx, bestD := chosen[0], math.Inf(1)
		for _, c := range chosen {
			if d := dist(s, sites[c]); d < bestD {
				bestD, bestIdx = d, c
			}
		}
		assign[i] = bestIdx
	}
	return assign
}

// rebalance moves demand from the most loaded hypervisor to the least
// loaded one while the imbalance improves.
func rebalance(sites []Site, chosen []int, assign []int) []int {
	out := append([]int(nil), assign...)
	for iter := 0; iter < 10*len(sites); iter++ {
		load := map[int]float64{}
		for i, h := range out {
			load[h] += sites[i].Demand
		}
		maxH, minH := chosen[0], chosen[0]
		for _, h := range chosen {
			if load[h] > load[maxH] {
				maxH = h
			}
			if load[h] < load[minH] {
				minH = h
			}
		}
		if maxH == minH {
			break
		}
		// Move the smallest-demand site off the hottest hypervisor if it
		// narrows the gap.
		bestSite, bestDemand := -1, math.Inf(1)
		for i, h := range out {
			if h == maxH && i != maxH && sites[i].Demand < bestDemand && sites[i].Demand > 0 {
				bestSite, bestDemand = i, sites[i].Demand
			}
		}
		if bestSite < 0 {
			break
		}
		if load[maxH]-bestDemand < load[minH]+bestDemand {
			break // move would overshoot
		}
		out[bestSite] = minH
	}
	return out
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// MeanDistance returns the demand-weighted mean site-to-hypervisor
// distance of a placement (the latency proxy).
func (p Placement) MeanDistance(sites []Site) float64 {
	var sum, wsum float64
	for i, h := range p.Assign {
		sum += sites[i].Demand * dist(sites[i], sites[h])
		wsum += sites[i].Demand
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// MinSeparation returns the minimum pairwise distance between chosen
// hypervisors (the resilience proxy). A single hypervisor has zero
// separation.
func (p Placement) MinSeparation(sites []Site) float64 {
	if len(p.Hypervisors) < 2 {
		return 0
	}
	best := math.Inf(1)
	for i := 0; i < len(p.Hypervisors); i++ {
		for j := i + 1; j < len(p.Hypervisors); j++ {
			best = math.Min(best, dist(sites[p.Hypervisors[i]], sites[p.Hypervisors[j]]))
		}
	}
	return best
}

// MaxLoad returns the largest demand assigned to one hypervisor.
func (p Placement) MaxLoad(sites []Site) float64 {
	load := map[int]float64{}
	for i, h := range p.Assign {
		load[h] += sites[i].Demand
	}
	var max float64
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}
