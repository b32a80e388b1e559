// Package geom provides the geometric substrate for the TSP workloads:
// points, the TSPLIB distance functions, bounding boxes and a Hilbert
// space-filling curve used by the hierarchical clustering.
package geom

import (
	"fmt"
	"math"
)

// Point is a city location in the plane (or latitude/longitude for the
// GEO metric, following TSPLIB's encoding).
type Point struct {
	X, Y float64
}

// Metric identifies a TSPLIB edge-weight function.
type Metric int

const (
	// Euclid2D is TSPLIB EUC_2D: Euclidean distance rounded to nearest int.
	Euclid2D Metric = iota
	// Ceil2D is TSPLIB CEIL_2D: Euclidean distance rounded up.
	Ceil2D
	// Geo is TSPLIB GEO: great-circle distance on an idealized Earth.
	Geo
	// Att is TSPLIB ATT: pseudo-Euclidean distance used by att* instances.
	Att
	// Exact is plain (unrounded) Euclidean distance; not a TSPLIB metric
	// but useful for geometry-level computations such as centroids and
	// clustering costs.
	Exact
)

// String returns the TSPLIB EDGE_WEIGHT_TYPE keyword for the metric.
func (m Metric) String() string {
	switch m {
	case Euclid2D:
		return "EUC_2D"
	case Ceil2D:
		return "CEIL_2D"
	case Geo:
		return "GEO"
	case Att:
		return "ATT"
	case Exact:
		return "EXACT"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// ParseMetric converts a TSPLIB EDGE_WEIGHT_TYPE keyword to a Metric.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "EUC_2D":
		return Euclid2D, nil
	case "CEIL_2D":
		return Ceil2D, nil
	case "GEO":
		return Geo, nil
	case "ATT":
		return Att, nil
	case "EXACT":
		return Exact, nil
	default:
		return 0, fmt.Errorf("geom: unsupported edge weight type %q", s)
	}
}

// Dist returns the distance between a and b under metric m. TSPLIB
// integer metrics return the integral value as a float64 so all tour
// lengths are exactly representable.
func (m Metric) Dist(a, b Point) float64 {
	switch m {
	case Euclid2D:
		return math.Round(math.Hypot(a.X-b.X, a.Y-b.Y))
	case Ceil2D:
		return math.Ceil(math.Hypot(a.X-b.X, a.Y-b.Y))
	case Geo:
		return geoDist(a, b)
	case Att:
		return attDist(a, b)
	case Exact:
		return math.Hypot(a.X-b.X, a.Y-b.Y)
	default:
		panic("geom: unknown metric")
	}
}

// geo constants from the TSPLIB specification.
const (
	geoPi     = 3.141592
	geoRadius = 6378.388
)

// geoRad converts a TSPLIB DDD.MM coordinate to radians.
func geoRad(x float64) float64 {
	deg := math.Trunc(x)
	min := x - deg
	return geoPi * (deg + 5.0*min/3.0) / 180.0
}

// geoDist implements the TSPLIB GEO distance (integer kilometres).
func geoDist(a, b Point) float64 {
	latA, lonA := geoRad(a.X), geoRad(a.Y)
	latB, lonB := geoRad(b.X), geoRad(b.Y)
	q1 := math.Cos(lonA - lonB)
	q2 := math.Cos(latA - latB)
	q3 := math.Cos(latA + latB)
	d := geoRadius*math.Acos(0.5*((1.0+q1)*q2-(1.0-q1)*q3)) + 1.0
	return math.Trunc(d)
}

// attDist implements the TSPLIB ATT pseudo-Euclidean distance.
func attDist(a, b Point) float64 {
	xd := a.X - b.X
	yd := a.Y - b.Y
	rij := math.Sqrt((xd*xd + yd*yd) / 10.0)
	tij := math.Round(rij)
	if tij < rij {
		return tij + 1
	}
	return tij
}

// BBox is an axis-aligned bounding box.
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
}

// Bounds returns the bounding box of pts. It panics on an empty slice.
func Bounds(pts []Point) BBox {
	if len(pts) == 0 {
		panic("geom: bounds of empty point set")
	}
	b := BBox{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		if p.X < b.MinX {
			b.MinX = p.X
		}
		if p.X > b.MaxX {
			b.MaxX = p.X
		}
		if p.Y < b.MinY {
			b.MinY = p.Y
		}
		if p.Y > b.MaxY {
			b.MaxY = p.Y
		}
	}
	return b
}

// Width returns the horizontal extent of the box.
func (b BBox) Width() float64 { return b.MaxX - b.MinX }

// Height returns the vertical extent of the box.
func (b BBox) Height() float64 { return b.MaxY - b.MinY }

// Contains reports whether p lies inside or on the boundary of b.
func (b BBox) Contains(p Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}
