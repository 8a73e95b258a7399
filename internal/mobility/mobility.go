// Package mobility plans the mobile measurement nodes' traversal of the
// sector grid: which cells each node drives through, in what order, and
// how many measurement rounds it performs per cell. Dwell behaviour
// follows the paper's description: "the number of measurements collected
// per cell varied, influenced by adherence to traffic flow dynamics and
// local traffic regulations" — dense cells are slow to cross and get many
// rounds; sparse border cells are passed without stopping and collect
// fewer than ten measurements.
package mobility

import (
	"time"

	"repro/internal/des"
	"repro/internal/geo"
)

// Stop is one cell visit of a mobile node.
type Stop struct {
	Cell geo.CellID
	// Rounds is the number of full measurement rounds (each round pings
	// every target once).
	Rounds int
	// PartialPings is the number of single pings in a final partial
	// round (used in sparse drive-through cells).
	PartialPings int
}

// Plan is the ordered visit list of one mobile node.
type Plan struct {
	Node  int
	Stops []Stop
}

// TravelTime is the time to drive between adjacent cells (1 km of urban
// traffic).
const TravelTime = 2 * time.Minute

// RoundInterval is the spacing between measurement rounds within a cell.
const RoundInterval = 10 * time.Second

// Serpentine orders cells row-major with alternating direction per row
// (the natural drive pattern over a street grid).
func Serpentine(cells []geo.CellID) []geo.CellID {
	byRow := map[int][]geo.CellID{}
	var rows []int
	for _, c := range cells {
		if _, ok := byRow[c.Row]; !ok {
			rows = append(rows, c.Row)
		}
		byRow[c.Row] = append(byRow[c.Row], c)
	}
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j] < rows[j-1]; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	var out []geo.CellID
	for i, r := range rows {
		row := byRow[r]
		geo.SortCells(row)
		if i%2 == 1 {
			for l, rr := 0, len(row)-1; l < rr; l, rr = l+1, rr-1 {
				row[l], row[rr] = row[rr], row[l]
			}
		}
		out = append(out, row...)
	}
	return out
}

// Routes is the seed-independent half of route planning over one
// density model: both serpentine drive orders (node 0's over every
// traversal cell, the other nodes' over the dense cells only) with each
// stop's dense flag and base round count. It is read-only once built,
// so one Routes serves any number of concurrent Plan calls.
type Routes struct {
	all, dense []routeStop
}

type routeStop struct {
	cell  geo.CellID
	dense bool
	// base is a dense stop's round count before per-node variation.
	base int
}

// NewRoutes lays out the drive orders over the density model's
// traversal set. Rounds per dense cell grow with population density:
// base = 6 + 10·density/maxDensity.
func NewRoutes(m *geo.DensityModel) *Routes {
	traversal := m.TraversalCells()
	var dense []geo.CellID
	maxDensity := 0.0
	for _, c := range traversal {
		if m.Dense(c) {
			dense = append(dense, c)
		}
		if d := m.Cell(c); d > maxDensity {
			maxDensity = d
		}
	}
	stops := func(route []geo.CellID) []routeStop {
		out := make([]routeStop, len(route))
		for i, c := range Serpentine(route) {
			out[i] = routeStop{cell: c, dense: m.Dense(c)}
			if out[i].dense {
				out[i].base = 6 + int(10*m.Cell(c)/maxDensity)
			}
		}
		return out
	}
	return &Routes{all: stops(traversal), dense: stops(dense)}
}

// Plan builds the visit plans for n mobile nodes. Node 0 covers all
// traversal cells including the sparse border cells; the remaining nodes
// keep to the dense cells (their routes follow the main roads). A dense
// stop's rounds are its base plus per-node variation drawn from rng, one
// draw per stop in plan order.
func (r *Routes) Plan(n int, rng *des.RNG) []Plan {
	if n <= 0 {
		return nil
	}
	// One backing array for every node's stops, each plan's slice
	// capacity-clipped so an append never runs into the next plan.
	stops := make([]Stop, 0, len(r.all)+(n-1)*len(r.dense))
	plans := make([]Plan, n)
	for i := range plans {
		plans[i].Node = i
		route := r.dense
		if i == 0 {
			route = r.all
		}
		start := len(stops)
		for _, s := range route {
			if !s.dense {
				// Drive-through: traffic regulations forbid stopping; a
				// handful of pings fire while crossing (always < 10 in
				// total, since only node 0 enters these cells).
				stops = append(stops, Stop{Cell: s.cell, PartialPings: 3 + rng.Intn(5)}) // 3..7
				continue
			}
			// Dense cell: congestion slows the node down; rounds grow
			// with density plus noise.
			rounds := s.base + rng.Intn(5) - 2
			if rounds < 3 {
				rounds = 3
			}
			stops = append(stops, Stop{Cell: s.cell, Rounds: rounds})
		}
		plans[i].Stops = stops[start:len(stops):len(stops)]
	}
	return plans
}
