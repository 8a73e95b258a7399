package geo

import (
	"math"
)

// BearingDeg returns the initial great-circle bearing from a to b in
// degrees clockwise from north, normalized to [0, 360).
func BearingDeg(a, b Point) float64 {
	la1, lo1 := deg2rad(a.Lat), deg2rad(a.Lon)
	la2, lo2 := deg2rad(b.Lat), deg2rad(b.Lon)
	dlo := lo2 - lo1
	y := math.Sin(dlo) * math.Cos(la2)
	x := math.Cos(la1)*math.Sin(la2) - math.Sin(la1)*math.Cos(la2)*math.Cos(dlo)
	brg := rad2deg(math.Atan2(y, x))
	return math.Mod(brg+360, 360)
}

// PathLengthKm returns the summed great-circle length of a polyline.
func PathLengthKm(pts []Point) float64 {
	var total float64
	for i := 1; i < len(pts); i++ {
		total += DistanceKm(pts[i-1], pts[i])
	}
	return total
}

// CellOf maps a point to the cell containing it, using an equirectangular
// local projection around the origin (exact enough at sector scale). The
// boolean is false when the point falls outside the grid.
func (g *Grid) CellOf(p Point) (CellID, bool) {
	eastKm, southKm := g.localKm(p)
	col := int(math.Floor(eastKm / g.CellKm))
	row := int(math.Floor(southKm/g.CellKm)) + 1
	c := CellID{Col: col, Row: row}
	return c, g.Contains(c)
}

// localKm projects p into kilometres east/south of the grid origin.
func (g *Grid) localKm(p Point) (eastKm, southKm float64) {
	latRad := deg2rad(g.Origin.Lat)
	kmPerLon := math.Pi / 180 * EarthRadiusKm * math.Cos(latRad)
	kmPerLat := math.Pi / 180 * EarthRadiusKm
	eastKm = (p.Lon - g.Origin.Lon) * kmPerLon
	southKm = (g.Origin.Lat - p.Lat) * kmPerLat
	return eastKm, southKm
}
