package geo

import (
	"math"
	"sort"
)

// DensityModel is a synthetic population-density raster (inhabitants per
// square kilometre) standing in for the Statistik Austria absolute
// population-density data the paper aligns its measurements with [18].
//
// The model is a sum of Gaussian population blobs: the city centre (cell
// C3, the paper's maximum-latency cell), the university quarter (E3,
// where the RIPE Atlas reference probe sits), an east-west arterial
// corridor, and a southern suburb. Border cells of the sector naturally
// fall below the paper's 1000 inhabitants/km^2 threshold, which is what
// starves them of measurements in Figure 2.
type DensityModel struct {
	grid  *Grid
	blobs []densityBlob
	base  float64
}

type densityBlob struct {
	xKm, yKm  float64 // blob centre in grid-local km (east, south)
	amplitude float64 // peak inhabitants/km^2 contributed
	sigmaKm   float64 // east-west spread
	sigmaYKm  float64 // north-south spread; 0 means isotropic
}

// SparseThreshold is the population density (inhabitants/km^2) below
// which the paper observes too few measurements (< 10) to report a cell.
const SparseThreshold = 1000.0

// TraversalCellCount is the number of grid cells the mobile campaign
// drives through (Figure 1: 33 of the 42 cells).
const TraversalCellCount = 33

// NewKlagenfurtDensity builds the synthetic raster for the campaign grid.
func NewKlagenfurtDensity(g *Grid) *DensityModel {
	return &DensityModel{
		grid: g,
		blobs: []densityBlob{
			// City centre at C3: the historic core is wider east-west
			// (along the arterial) than north-south, which leaves the
			// row-1 flanks (B1, D1) below the sparse threshold while C1
			// on the arterial stays populated.
			{xKm: 2.5, yKm: 2.5, amplitude: 4300, sigmaKm: 1.35, sigmaYKm: 1.15},
			{xKm: 4.5, yKm: 2.5, amplitude: 2100, sigmaKm: 0.85}, // university quarter at E3
			{xKm: 3.0, yKm: 3.6, amplitude: 1500, sigmaKm: 1.15}, // arterial corridor
			{xKm: 1.8, yKm: 5.3, amplitude: 1200, sigmaKm: 0.90}, // southern suburb
		},
		base: 130,
	}
}

// AtKm evaluates the raster at grid-local kilometre coordinates.
func (m *DensityModel) AtKm(eastKm, southKm float64) float64 {
	d := m.base
	for _, b := range m.blobs {
		dx := eastKm - b.xKm
		dy := southKm - b.yKm
		sy := b.sigmaYKm
		if sy == 0 {
			sy = b.sigmaKm
		}
		d += b.amplitude * math.Exp(-dx*dx/(2*b.sigmaKm*b.sigmaKm)-dy*dy/(2*sy*sy))
	}
	return d
}

// Cell returns the density at the centre of a cell.
func (m *DensityModel) Cell(c CellID) float64 {
	x := (float64(c.Col) + 0.5) * m.grid.CellKm
	y := (float64(c.Row-1) + 0.5) * m.grid.CellKm
	return m.AtKm(x, y)
}

// Dense reports whether the cell clears the sparse-population threshold.
func (m *DensityModel) Dense(c CellID) bool {
	return m.Cell(c) >= SparseThreshold
}

// TraversalCells returns the TraversalCellCount most densely populated
// cells in row-major order: the drivable route of Figure 1. Development
// (and therefore road coverage and traffic-regulation-compatible routes)
// tracks population density, so the sparsest cells are the ones the
// campaign never entered.
func (m *DensityModel) TraversalCells() []CellID {
	cells := m.grid.Cells()
	sort.SliceStable(cells, func(i, j int) bool {
		return m.Cell(cells[i]) > m.Cell(cells[j])
	})
	n := TraversalCellCount
	if n > len(cells) {
		n = len(cells)
	}
	top := append([]CellID(nil), cells[:n]...)
	SortCells(top)
	return top
}

// SparseTraversed returns traversed cells below the density threshold:
// the cells Figure 2 reports as 0.0 (fewer than ten measurements).
func (m *DensityModel) SparseTraversed() []CellID {
	var out []CellID
	for _, c := range m.TraversalCells() {
		if !m.Dense(c) {
			out = append(out, c)
		}
	}
	return out
}

// LoadFactor maps a cell's density to a normalized radio-load factor in
// [0.05, 1]: denser cells contend for radio scheduling and backhaul,
// which is the mechanism behind the inter-cell latency spread in
// Figure 2. The affine form (with a 600/km^2 subscriber floor and a
// 5600/km^2 saturation point) gives suburban cells genuinely light radio
// load while the city-centre cells saturate their sites.
func (m *DensityModel) LoadFactor(c CellID) float64 {
	const (
		floor      = 600.0
		saturation = 5600.0
	)
	l := (m.Cell(c) - floor) / (saturation - floor)
	if l < 0.05 {
		l = 0.05
	}
	if l > 1 {
		l = 1
	}
	return l
}

// GNBSite is a macro radio site of the synthetic deployment, placed at an
// offset inside its host cell. Distance from a cell to its nearest site
// drives retransmission and handover probability (the dispersion
// mechanism of Figure 3: B3 hosts a site at its centre and is the most
// stable cell; E5 is the farthest populated cell from any site and the
// most volatile).
type GNBSite struct {
	Cell    string  // host cell in "C3" notation
	EastKm  float64 // offset from the cell's northwest corner
	SouthKm float64
}

// GNBSiteLayout is the macro-site deployment for the Klagenfurt sector.
// Only the B3 hub sits exactly at its cell's centre — it is the sector's
// high-capacity anchor site and therefore the most stable cell of
// Figure 3; the other rooftop sites are offset to wherever suitable
// buildings exist, leaving every other cell with a small residual
// distance (and hence some HARQ dispersion).
var GNBSiteLayout = []GNBSite{
	{Cell: "C1", EastKm: 0.5, SouthKm: 0.2},
	{Cell: "B3", EastKm: 0.5, SouthKm: 0.5}, // the central hub site
	{Cell: "D2", EastKm: 0.5, SouthKm: 0.35},
	{Cell: "E3", EastKm: 0.55, SouthKm: 0.3},
	{Cell: "B6", EastKm: 0.5, SouthKm: 0.28},
	{Cell: "C6", EastKm: 0.72, SouthKm: 0.5},
}

// GNBSites returns the geographic gNB site positions for the grid.
func GNBSites(g *Grid) []Point {
	out := make([]Point, 0, len(GNBSiteLayout))
	for _, s := range GNBSiteLayout {
		c, err := ParseCellID(s.Cell)
		if err != nil {
			panic(err)
		}
		out = append(out, g.Offset(c, s.EastKm, s.SouthKm))
	}
	return out
}

// NearestSiteKm returns the distance from the cell centre to the nearest
// gNB site in kilometres.
func NearestSiteKm(g *Grid, c CellID) float64 {
	center := g.Center(c)
	best := math.Inf(1)
	for _, s := range GNBSites(g) {
		if d := DistanceKm(center, s); d < best {
			best = d
		}
	}
	return best
}
