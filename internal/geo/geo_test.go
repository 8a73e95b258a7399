package geo

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64 // km
		tol  float64
	}{
		{Klagenfurt, Vienna, 235, 5},
		{Vienna, Prague, 251, 5},
		{Prague, Bucharest, 1080, 15},
		{Bucharest, Vienna, 856, 10},
		{Klagenfurt, Klagenfurt, 0, 1e-9},
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if !almostEqual(got, c.want, c.tol) {
			t.Errorf("DistanceKm(%v, %v) = %.1f, want %.1f±%.0f", c.a, c.b, got, c.want, c.tol)
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: math.Mod(lat1, 89), Lon: math.Mod(lon1, 179)}
		b := Point{Lat: math.Mod(lat2, 89), Lon: math.Mod(lon2, 179)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return almostEqual(d1, d2, 1e-6) && d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(lats [3]float64, lons [3]float64) bool {
		var p [3]Point
		for i := range p {
			p[i] = Point{Lat: math.Mod(lats[i], 89), Lon: math.Mod(lons[i], 179)}
		}
		ab := DistanceKm(p[0], p[1])
		bc := DistanceKm(p[1], p[2])
		ac := DistanceKm(p[0], p[2])
		return ac <= ab+bc+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	f := func(distRaw, brgRaw float64) bool {
		dist := math.Abs(math.Mod(distRaw, 500))
		brg := math.Mod(brgRaw, 360)
		dest := Destination(Klagenfurt, brg, dist)
		return almostEqual(DistanceKm(Klagenfurt, dest), dist, 0.01)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBearingCardinal(t *testing.T) {
	north := Destination(Klagenfurt, 0, 10)
	if b := BearingDeg(Klagenfurt, north); !almostEqual(b, 0, 0.5) && !almostEqual(b, 360, 0.5) {
		t.Errorf("bearing to north = %v", b)
	}
	east := Destination(Klagenfurt, 90, 10)
	if b := BearingDeg(Klagenfurt, east); !almostEqual(b, 90, 0.5) {
		t.Errorf("bearing to east = %v", b)
	}
}

func TestMidpoint(t *testing.T) {
	m := Midpoint(Klagenfurt, Vienna)
	d1 := DistanceKm(Klagenfurt, m)
	d2 := DistanceKm(m, Vienna)
	if !almostEqual(d1, d2, 0.5) {
		t.Errorf("midpoint not equidistant: %v vs %v", d1, d2)
	}
}

func TestPathLength(t *testing.T) {
	pts := []Point{Klagenfurt, Vienna, Prague}
	want := DistanceKm(Klagenfurt, Vienna) + DistanceKm(Vienna, Prague)
	if got := PathLengthKm(pts); !almostEqual(got, want, 1e-9) {
		t.Errorf("PathLengthKm = %v, want %v", got, want)
	}
	if PathLengthKm(nil) != 0 || PathLengthKm(pts[:1]) != 0 {
		t.Error("degenerate paths should have zero length")
	}
}

func TestCellIDString(t *testing.T) {
	cases := map[CellID]string{
		{Col: 0, Row: 1}: "A1",
		{Col: 2, Row: 3}: "C3",
		{Col: 5, Row: 7}: "F7",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", c, got, want)
		}
		parsed, err := ParseCellID(want)
		if err != nil || parsed != c {
			t.Errorf("ParseCellID(%q) = %v, %v", want, parsed, err)
		}
	}
}

// TestCellIDStringMatchesSprintf: String builds its bytes by hand, and
// must produce exactly what the fmt rendering did — including columns
// past 'Z' and zero or negative rows — since cell names feed scenario
// records and store keys.
func TestCellIDStringMatchesSprintf(t *testing.T) {
	for col := 0; col <= 30; col++ {
		for row := -1; row <= 120; row++ {
			c := CellID{Col: col, Row: row}
			if got, want := c.String(), fmt.Sprintf("%c%d", 'A'+rune(c.Col), c.Row); got != want {
				t.Fatalf("CellID{%d, %d}.String() = %q, want %q", col, row, got, want)
			}
		}
	}
}

func TestParseCellIDErrors(t *testing.T) {
	for _, bad := range []string{"", "3", "a3", "C0", "Cx", "C-1", "C0x3", "C00", "C+", "C ", "C\n3",
		"C99999999999999999999"} {
		if _, err := ParseCellID(bad); err == nil {
			t.Errorf("ParseCellID(%q) succeeded, want error", bad)
		}
	}
}

func TestGridCellsCount(t *testing.T) {
	g := NewKlagenfurtGrid()
	cells := g.Cells()
	if len(cells) != 42 {
		t.Fatalf("grid has %d cells, want 42", len(cells))
	}
	seen := map[CellID]bool{}
	for _, c := range cells {
		if seen[c] {
			t.Fatalf("duplicate cell %v", c)
		}
		seen[c] = true
		if !g.Contains(c) {
			t.Fatalf("enumerated cell %v not contained", c)
		}
	}
}

func TestGridCenterWithinCell(t *testing.T) {
	g := NewKlagenfurtGrid()
	for _, c := range g.Cells() {
		got, ok := g.CellOf(g.Center(c))
		if !ok || got != c {
			t.Fatalf("CellOf(Center(%v)) = %v, %v", c, got, ok)
		}
	}
}

func TestGridCellOfOutside(t *testing.T) {
	g := NewKlagenfurtGrid()
	if _, ok := g.CellOf(Vienna); ok {
		t.Fatal("Vienna should be outside the Klagenfurt grid")
	}
	if _, ok := g.CellOf(Destination(g.Origin, 315, 2)); ok {
		t.Fatal("point northwest of origin should be outside")
	}
}

func TestGridCellSizes(t *testing.T) {
	g := NewKlagenfurtGrid()
	a1 := g.Center(CellID{Col: 0, Row: 1})
	b1 := g.Center(CellID{Col: 1, Row: 1})
	a2 := g.Center(CellID{Col: 0, Row: 2})
	if d := DistanceKm(a1, b1); !almostEqual(d, 1.0, 0.02) {
		t.Errorf("east neighbour distance = %v km, want 1", d)
	}
	if d := DistanceKm(a1, a2); !almostEqual(d, 1.0, 0.02) {
		t.Errorf("south neighbour distance = %v km, want 1", d)
	}
}

func TestGridOffsetBounds(t *testing.T) {
	g := NewKlagenfurtGrid()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-cell offset did not panic")
		}
	}()
	g.Offset(CellID{Col: 0, Row: 1}, 1.5, 0.5)
}

func TestIsBorder(t *testing.T) {
	g := NewKlagenfurtGrid()
	borders := 0
	for _, c := range g.Cells() {
		if g.IsBorder(c) {
			borders++
		}
	}
	// 6x7 grid: outer ring = 42 - 4*5 = 22 cells.
	if borders != 22 {
		t.Fatalf("border cells = %d, want 22", borders)
	}
	if !g.IsBorder(CellID{Col: 0, Row: 3}) || g.IsBorder(CellID{Col: 2, Row: 3}) {
		t.Fatal("border classification wrong")
	}
}

func TestUniversityNearE3(t *testing.T) {
	g := NewKlagenfurtGrid()
	// The grid is anchored so that the city sits inside it; Klagenfurt's
	// centre must land in the grid.
	if _, ok := g.CellOf(Klagenfurt); !ok {
		t.Fatal("Klagenfurt city centre outside the campaign grid")
	}
}

func TestDensityTraversalSetSize(t *testing.T) {
	g := NewKlagenfurtGrid()
	m := NewKlagenfurtDensity(g)
	trav := m.TraversalCells()
	if len(trav) != TraversalCellCount {
		t.Fatalf("traversal set = %d cells, want %d", len(trav), TraversalCellCount)
	}
	seen := map[CellID]bool{}
	for _, c := range trav {
		if seen[c] {
			t.Fatalf("duplicate traversal cell %v", c)
		}
		seen[c] = true
	}
}

func TestDensitySparseTraversedAreBorderish(t *testing.T) {
	g := NewKlagenfurtGrid()
	m := NewKlagenfurtDensity(g)
	sparse := m.SparseTraversed()
	if len(sparse) == 0 {
		t.Fatal("expected some sparse traversed cells (the 0.0 cells of Fig. 2)")
	}
	for _, c := range sparse {
		if m.Dense(c) {
			t.Fatalf("sparse cell %v classified dense", c)
		}
	}
}

func TestDensityPeakIsC3(t *testing.T) {
	g := NewKlagenfurtGrid()
	m := NewKlagenfurtDensity(g)
	var best CellID
	bestD := -1.0
	for _, c := range g.Cells() {
		if d := m.Cell(c); d > bestD {
			bestD, best = d, c
		}
	}
	if best.String() != "C3" {
		t.Fatalf("density peak at %v, want C3 (the paper's max-latency cell)", best)
	}
}

func TestDensityNonNegativeAndLoadBounded(t *testing.T) {
	g := NewKlagenfurtGrid()
	m := NewKlagenfurtDensity(g)
	for _, c := range g.Cells() {
		if m.Cell(c) < 0 {
			t.Fatalf("negative density at %v", c)
		}
		l := m.LoadFactor(c)
		if l < 0 || l > 1 {
			t.Fatalf("load factor out of range at %v: %v", c, l)
		}
	}
}

func TestGNBSiteGeometry(t *testing.T) {
	g := NewKlagenfurtGrid()
	sites := GNBSites(g)
	if len(sites) != len(GNBSiteLayout) {
		t.Fatalf("sites = %d, want %d", len(sites), len(GNBSiteLayout))
	}
	// B3 hosts a site at its centre: most stable cell of Figure 3.
	b3, _ := ParseCellID("B3")
	if d := NearestSiteKm(g, b3); d > 0.01 {
		t.Errorf("B3 nearest site = %v km, want ~0", d)
	}
	// E5 must be the farthest *dense traversed* cell from any site:
	// the most volatile cell of Figure 3.
	m := NewKlagenfurtDensity(g)
	var worst CellID
	worstD := -1.0
	for _, c := range m.TraversalCells() {
		if !m.Dense(c) {
			continue
		}
		if d := NearestSiteKm(g, c); d > worstD {
			worstD, worst = d, c
		}
	}
	if worst.String() != "E5" {
		t.Errorf("most site-isolated dense cell = %v (%.2f km), want E5", worst, worstD)
	}
}

func TestSortCells(t *testing.T) {
	cells := []CellID{{Col: 3, Row: 2}, {Col: 0, Row: 1}, {Col: 1, Row: 2}, {Col: 5, Row: 1}}
	SortCells(cells)
	want := []string{"A1", "F1", "B2", "D2"}
	for i, w := range want {
		if cells[i].String() != w {
			t.Fatalf("sorted = %v, want %v", cells, want)
		}
	}
}

// parseCellIDSscanf is ParseCellID as it read rows before the
// plain-digit fast path: fmt.Sscanf's "%d". It is the reference the
// fast path must agree with, lenient cases included.
func parseCellIDSscanf(s string) (CellID, error) {
	if len(s) < 2 {
		return CellID{}, fmt.Errorf("geo: malformed cell id %q", s)
	}
	col := int(s[0] - 'A')
	if col < 0 || col > 25 {
		return CellID{}, fmt.Errorf("geo: malformed cell column in %q", s)
	}
	var row int
	if _, err := fmt.Sscanf(s[1:], "%d", &row); err != nil || row < 1 {
		return CellID{}, fmt.Errorf("geo: malformed cell row in %q", s)
	}
	return CellID{Col: col, Row: row}, nil
}

// FuzzParseCellID checks ParseCellID against the fmt.Sscanf reference
// on arbitrary input: the same cell or the same error. Cell names are
// store keys, so the seeds include what "%d" leniently accepts ("C3x",
// "C+3", "C 3", "C03", "C1_0") next to what it rejects.
func FuzzParseCellID(f *testing.F) {
	for _, s := range []string{"", "C", "A1", "F7", "C3x", "C+3", "C 3", "C03", "C1_0", "C0x3",
		"C-1", "C\t3", "C\n3", "C 3", "C9223372036854775807", "C9223372036854775808",
		"C123456789012345678", "C1234567890123456789", "a1", "[1", "C٣"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotErr := ParseCellID(s)
		want, wantErr := parseCellIDSscanf(s)
		if got != want || (gotErr == nil) != (wantErr == nil) ||
			(gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("ParseCellID(%q) = %v, %v; Sscanf reference = %v, %v", s, got, gotErr, want, wantErr)
		}
	})
}

// TestParseCellIDPlainDigitsDoNotAllocate: GNBSites parses every site
// for every cell of every campaign, and restoring a stored result
// parses every cell name, so the common form must not allocate.
func TestParseCellIDPlainDigitsDoNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseCellID("C12"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ParseCellID(\"C12\") allocates %.0f times, want 0", n)
	}
}
