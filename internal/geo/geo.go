// Package geo provides the geographic substrate: WGS-84 points,
// great-circle distances, and the sector/cell grid partitioning used by
// the Klagenfurt measurement campaign (1 km cells labelled A-F by 1-7),
// together with a synthetic population-density raster standing in for the
// Statistik Austria data the paper uses.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used for great-circle math.
const EarthRadiusKm = 6371.0

// Point is a WGS-84 coordinate in degrees.
type Point struct {
	Lat float64 // degrees, north positive
	Lon float64 // degrees, east positive
}

func (p Point) String() string { return fmt.Sprintf("(%.4f, %.4f)", p.Lat, p.Lon) }

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// DistanceKm returns the great-circle (haversine) distance between two
// points in kilometres.
func DistanceKm(a, b Point) float64 {
	la1, lo1 := deg2rad(a.Lat), deg2rad(a.Lon)
	la2, lo2 := deg2rad(b.Lat), deg2rad(b.Lon)
	dla := la2 - la1
	dlo := lo2 - lo1
	h := math.Sin(dla/2)*math.Sin(dla/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dlo/2)*math.Sin(dlo/2)
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// Destination returns the point reached by travelling distKm kilometres
// from p along the given initial bearing (degrees clockwise from north).
func Destination(p Point, bearingDeg, distKm float64) Point {
	la1, lo1 := deg2rad(p.Lat), deg2rad(p.Lon)
	brg := deg2rad(bearingDeg)
	ang := distKm / EarthRadiusKm
	la2 := math.Asin(math.Sin(la1)*math.Cos(ang) + math.Cos(la1)*math.Sin(ang)*math.Cos(brg))
	lo2 := lo1 + math.Atan2(
		math.Sin(brg)*math.Sin(ang)*math.Cos(la1),
		math.Cos(ang)-math.Sin(la1)*math.Sin(la2),
	)
	lon := rad2deg(lo2)
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return Point{Lat: rad2deg(la2), Lon: lon}
}

// Reference city coordinates used by the central-Europe topology and the
// Table I / Figure 4 trace reconstruction.
var (
	Klagenfurt = Point{Lat: 46.6247, Lon: 14.3050}
	Vienna     = Point{Lat: 48.2082, Lon: 16.3738}
	Prague     = Point{Lat: 50.0755, Lon: 14.4378}
	Bucharest  = Point{Lat: 44.4268, Lon: 26.1025}
)
