// Package tsplib provides TSP problem instances: a parser and writer for
// the TSPLIB95 file format, deterministic synthetic generators that stand
// in for the paper's TSPLIB workloads (the module is offline), and a
// registry of the instances used in the paper's evaluation together with
// their published best-known tour lengths.
package tsplib

import (
	"fmt"
	"math"

	"cimsa/internal/geom"
)

// Instance is a symmetric 2-D TSP instance.
type Instance struct {
	// Name is the instance identifier, e.g. "pcb3038".
	Name string
	// Comment is free-form provenance text.
	Comment string
	// Metric is the edge weight function.
	Metric geom.Metric
	// Cities holds one point per city, 0-indexed. (TSPLIB files are
	// 1-indexed; the parser converts.) For EXPLICIT-matrix instances
	// without coordinate data, the parser fills Cities with a classical
	// MDS embedding of the matrix so geometry-based algorithms (Hilbert
	// clustering, neighbour lists) still work.
	Cities []geom.Point
	// Explicit, when non-nil, is a full symmetric distance matrix that
	// overrides the metric (TSPLIB EDGE_WEIGHT_TYPE: EXPLICIT).
	Explicit [][]float64
}

// N returns the number of cities.
func (in *Instance) N() int { return len(in.Cities) }

// Dist returns the distance between cities i and j.
func (in *Instance) Dist(i, j int) float64 {
	if in.Explicit != nil {
		return in.Explicit[i][j]
	}
	return in.Metric.Dist(in.Cities[i], in.Cities[j])
}

// Validate checks structural invariants: a non-empty name, at least
// three cities, a known metric, finite coordinates, for explicit
// matrices a square, symmetric, finite and non-negative matrix with a
// zero diagonal, and that no tour length overflows. For the last, N
// edges as long as the longest possible one must sum to a finite
// length; the longest edge is taken as the largest of the bounding
// box's diagonal, that diagonal under the metric, and any explicit
// distance.
func (in *Instance) Validate() error {
	if in.Name == "" {
		return fmt.Errorf("tsplib: instance has no name")
	}
	if len(in.Cities) < 3 {
		return fmt.Errorf("tsplib: instance %s has %d cities, need >= 3", in.Name, len(in.Cities))
	}
	if in.Metric < geom.Euclid2D || in.Metric > geom.Exact {
		return fmt.Errorf("tsplib: instance %s has unknown metric %v", in.Name, in.Metric)
	}
	lo, hi := in.Cities[0], in.Cities[0]
	for i, c := range in.Cities {
		if math.IsNaN(c.X) || math.IsNaN(c.Y) || math.IsInf(c.X, 0) || math.IsInf(c.Y, 0) {
			return fmt.Errorf("tsplib: instance %s city %d has non-finite coordinate (%v, %v)", in.Name, i, c.X, c.Y)
		}
		lo.X, lo.Y = min(lo.X, c.X), min(lo.Y, c.Y)
		hi.X, hi.Y = max(hi.X, c.X), max(hi.Y, c.Y)
	}
	longest := max(math.Hypot(hi.X-lo.X, hi.Y-lo.Y), in.Metric.Dist(lo, hi))
	if in.Explicit != nil {
		if len(in.Explicit) != len(in.Cities) {
			return fmt.Errorf("tsplib: explicit matrix is %d rows for %d cities", len(in.Explicit), len(in.Cities))
		}
		for i, row := range in.Explicit {
			if len(row) != len(in.Explicit) {
				return fmt.Errorf("tsplib: explicit matrix row %d has %d entries", i, len(row))
			}
			for j, v := range row {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 1) {
					return fmt.Errorf("tsplib: explicit distance (%d,%d) = %v", i, j, v)
				}
				if in.Explicit[j][i] != v {
					return fmt.Errorf("tsplib: explicit matrix asymmetric at (%d,%d)", i, j)
				}
				longest = max(longest, v)
			}
			if row[i] != 0 {
				return fmt.Errorf("tsplib: explicit diagonal (%d,%d) nonzero", i, i)
			}
		}
	}
	// The negated comparison also refuses a NaN, which an overflowing
	// GEO conversion produces.
	if !(longest*float64(len(in.Cities)) <= math.MaxFloat64) {
		return fmt.Errorf("tsplib: instance %s: %d edges up to %g long overflow a tour length", in.Name, len(in.Cities), longest)
	}
	return nil
}

// DistanceMatrix materializes the full N x N distance matrix. It is meant
// for small instances (exact solvers, unit tests); it panics above
// maxMatrixN cities to catch accidental quadratic blowups on the
// 85900-city workloads.
const maxMatrixN = 4096

func (in *Instance) DistanceMatrix() [][]float64 {
	n := in.N()
	if n > maxMatrixN {
		panic(fmt.Sprintf("tsplib: DistanceMatrix on %d cities (limit %d)", n, maxMatrixN))
	}
	backing := make([]float64, n*n)
	m := make([][]float64, n)
	for i := range m {
		m[i], backing = backing[:n], backing[n:]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := in.Dist(i, j)
			m[i][j] = d
			m[j][i] = d
		}
	}
	return m
}

// SubInstance returns a new instance containing only the listed cities
// (in the given order), sharing no storage with the receiver. Explicit
// distance matrices are sliced along with the coordinates.
func (in *Instance) SubInstance(name string, cities []int) *Instance {
	pts := make([]geom.Point, len(cities))
	for i, c := range cities {
		pts[i] = in.Cities[c]
	}
	out := &Instance{
		Name:    name,
		Comment: fmt.Sprintf("sub-instance of %s (%d cities)", in.Name, len(cities)),
		Metric:  in.Metric,
		Cities:  pts,
	}
	if in.Explicit != nil {
		m := make([][]float64, len(cities))
		for i, ci := range cities {
			m[i] = make([]float64, len(cities))
			for j, cj := range cities {
				m[i][j] = in.Explicit[ci][cj]
			}
		}
		out.Explicit = m
	}
	return out
}
