package mobility

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/geo"
)

func model() *geo.DensityModel {
	return geo.NewKlagenfurtDensity(geo.NewKlagenfurtGrid())
}

func TestSerpentineVisitsAllOnce(t *testing.T) {
	m := model()
	cells := m.TraversalCells()
	route := Serpentine(cells)
	if len(route) != len(cells) {
		t.Fatalf("serpentine %d cells, want %d", len(route), len(cells))
	}
	seen := map[geo.CellID]bool{}
	for _, c := range route {
		if seen[c] {
			t.Fatalf("cell %v visited twice", c)
		}
		seen[c] = true
	}
}

func TestSerpentineAlternatesDirection(t *testing.T) {
	cells := []geo.CellID{
		{Col: 0, Row: 1}, {Col: 1, Row: 1}, {Col: 2, Row: 1},
		{Col: 0, Row: 2}, {Col: 1, Row: 2}, {Col: 2, Row: 2},
	}
	route := Serpentine(cells)
	want := []string{"A1", "B1", "C1", "C2", "B2", "A2"}
	for i, w := range want {
		if route[i].String() != w {
			t.Fatalf("route = %v, want %v", route, want)
		}
	}
}

func TestSerpentineRowOrderSorted(t *testing.T) {
	// Rows presented out of order must still come out 1..n.
	cells := []geo.CellID{{Col: 0, Row: 3}, {Col: 0, Row: 1}, {Col: 0, Row: 2}}
	route := Serpentine(cells)
	if route[0].Row != 1 || route[1].Row != 2 || route[2].Row != 3 {
		t.Fatalf("rows out of order: %v", route)
	}
}

func TestPlanRoutesNodeZeroCoversAll(t *testing.T) {
	m := model()
	plans := NewRoutes(m).Plan(3, des.NewRNG(1))
	if len(plans) != 3 {
		t.Fatalf("plans = %d", len(plans))
	}
	if got := len(plans[0].CellsVisited()); got != geo.TraversalCellCount {
		t.Fatalf("node 0 visits %d cells, want %d", got, geo.TraversalCellCount)
	}
	// Other nodes keep to dense cells.
	for _, p := range plans[1:] {
		for _, c := range p.CellsVisited() {
			if !m.Dense(c) {
				t.Fatalf("node %d enters sparse cell %v", p.Node, c)
			}
		}
	}
}

func TestSparseCellsGetPartialPingsOnly(t *testing.T) {
	m := model()
	plans := NewRoutes(m).Plan(3, des.NewRNG(2))
	totalSparse := map[geo.CellID]int{}
	for _, p := range plans {
		for _, s := range p.Stops {
			if m.Dense(s.Cell) {
				if s.Rounds < 3 {
					t.Fatalf("dense cell %v has %d rounds", s.Cell, s.Rounds)
				}
				if s.PartialPings != 0 {
					t.Fatalf("dense cell %v has partial pings", s.Cell)
				}
			} else {
				if s.Rounds != 0 {
					t.Fatalf("sparse cell %v has full rounds", s.Cell)
				}
				totalSparse[s.Cell] += s.PartialPings
			}
		}
	}
	if len(totalSparse) == 0 {
		t.Fatal("no sparse cells visited")
	}
	for c, n := range totalSparse {
		if n >= 10 {
			t.Fatalf("sparse cell %v accumulates %d pings, must stay < 10", c, n)
		}
		if n < 3 {
			t.Fatalf("sparse cell %v got only %d pings", c, n)
		}
	}
}

func TestDenseRoundsGrowWithDensity(t *testing.T) {
	m := model()
	plans := NewRoutes(m).Plan(1, des.NewRNG(3))
	c3, _ := geo.ParseCellID("C3")
	b6, _ := geo.ParseCellID("B6")
	var rC3, rB6 int
	for _, s := range plans[0].Stops {
		switch s.Cell {
		case c3:
			rC3 = s.Rounds
		case b6:
			rB6 = s.Rounds
		}
	}
	if rC3 == 0 || rB6 == 0 {
		t.Fatal("expected stops at C3 and B6")
	}
	if rC3 <= rB6 {
		t.Fatalf("rounds C3=%d should exceed B6=%d (denser cell, slower traffic)", rC3, rB6)
	}
}

func TestPlanDuration(t *testing.T) {
	m := model()
	plans := NewRoutes(m).Plan(1, des.NewRNG(4))
	d := plans[0].Duration()
	if d < time.Hour || d > 6*time.Hour {
		t.Fatalf("campaign day length %v implausible", d)
	}
}

func TestPlanRoutesZeroNodes(t *testing.T) {
	if NewRoutes(model()).Plan(0, des.NewRNG(5)) != nil {
		t.Fatal("zero nodes should produce no plans")
	}
}

func TestPlanRoutesDeterministic(t *testing.T) {
	m := model()
	a := NewRoutes(m).Plan(2, des.NewRNG(9))
	b := NewRoutes(m).Plan(2, des.NewRNG(9))
	for i := range a {
		if len(a[i].Stops) != len(b[i].Stops) {
			t.Fatal("plans differ in length")
		}
		for j := range a[i].Stops {
			if a[i].Stops[j] != b[i].Stops[j] {
				t.Fatal("plans not deterministic")
			}
		}
	}
}

// planRoutesReference is the planner as it was before the drive orders
// were split out into Routes: everything derived from the density model
// on every call, interleaved with the draws.
func planRoutesReference(m *geo.DensityModel, n int, rng *des.RNG) []Plan {
	if n <= 0 {
		return nil
	}
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
	plans := make([]Plan, n)
	for i := range plans {
		plans[i].Node = i
		route := dense
		if i == 0 {
			route = traversal
		}
		for _, c := range Serpentine(route) {
			if !m.Dense(c) {
				plans[i].Stops = append(plans[i].Stops, Stop{Cell: c, PartialPings: 3 + rng.Intn(5)})
				continue
			}
			base := 6 + int(10*m.Cell(c)/maxDensity)
			rounds := base + rng.Intn(5) - 2
			if rounds < 3 {
				rounds = 3
			}
			plans[i].Stops = append(plans[i].Stops, Stop{Cell: c, Rounds: rounds})
		}
	}
	return plans
}

// TestRoutesPlanMatchesReference: one Routes, planned many times, gives
// the reference planner's stops from the same draws in the same order,
// and leaves the RNG where the reference leaves it.
func TestRoutesPlanMatchesReference(t *testing.T) {
	m := model()
	routes := NewRoutes(m)
	for _, n := range []int{1, 2, 3, 5} {
		for seed := uint64(1); seed <= 20; seed++ {
			gotRNG, wantRNG := des.NewRNG(seed), des.NewRNG(seed)
			got := routes.Plan(n, gotRNG)
			want := planRoutesReference(m, n, wantRNG)
			if len(got) != len(want) {
				t.Fatalf("n=%d seed=%d: %d plans, want %d", n, seed, len(got), len(want))
			}
			for i := range want {
				if got[i].Node != want[i].Node || len(got[i].Stops) != len(want[i].Stops) {
					t.Fatalf("n=%d seed=%d: plan %d differs in node or length", n, seed, i)
				}
				for j := range want[i].Stops {
					if got[i].Stops[j] != want[i].Stops[j] {
						t.Fatalf("n=%d seed=%d: plan %d stop %d = %+v, want %+v",
							n, seed, i, j, got[i].Stops[j], want[i].Stops[j])
					}
				}
			}
			if a, b := gotRNG.Uint64(), wantRNG.Uint64(); a != b {
				t.Fatalf("n=%d seed=%d: RNG left at a different draw", n, seed)
			}
		}
	}
}

// TestRoutesPlanDoesNotAlias: appending to one node's stops must not
// overwrite the next node's.
func TestRoutesPlanDoesNotAlias(t *testing.T) {
	plans := NewRoutes(model()).Plan(2, des.NewRNG(1))
	first := plans[1].Stops[0]
	plans[0].Stops = append(plans[0].Stops, Stop{})
	if plans[1].Stops[0] != first {
		t.Fatal("appending to plan 0 overwrote plan 1")
	}
}
