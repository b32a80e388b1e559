package cimsa_test

import (
	"encoding/binary"
	"math"
	"testing"

	"cimsa"
	"cimsa/internal/geom"
)

// maxFuzzCities caps a decoded instance so one fuzz input solves in
// milliseconds.
const maxFuzzCities = 256

// encodeCities is the inverse of decodeCities: a metric byte, then each
// city's X and Y as little-endian float64 bits.
func encodeCities(metric byte, cities []geom.Point) []byte {
	out := []byte{metric}
	for _, c := range cities {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(c.X))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(c.Y))
	}
	return out
}

// decodeCities reads raw bytes as an instance. The metric byte covers
// the five TSPLIB metrics plus one unknown value Validate must refuse;
// trailing bytes short of a city are ignored.
func decodeCities(data []byte) *cimsa.Instance {
	in := &cimsa.Instance{Name: "fuzz"}
	if len(data) == 0 {
		return in
	}
	in.Metric = geom.Metric(data[0] % 6)
	data = data[1:]
	for len(data) >= 16 && len(in.Cities) < maxFuzzCities {
		in.Cities = append(in.Cities, geom.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(data)),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
		})
		data = data[16:]
	}
	return in
}

// fuzzLayouts are the extreme and degenerate city sets the seeds
// cover, each built at n cities: ±Inf, ±1e308 and 1e200 outliers, a
// 1e200-wide spread, subnormal spacing, coincident and collinear cities.
var fuzzLayouts = []func(n int) []geom.Point{
	withCity(geom.Point{X: math.Inf(1), Y: 0}),
	withCity(geom.Point{X: 0, Y: math.Inf(-1)}),
	withCity(geom.Point{X: 1e308, Y: 0}),
	withCity(geom.Point{X: 0, Y: -1e308}),
	withCity(geom.Point{X: 1e200, Y: 0}),
	line(geom.Point{X: 1e200, Y: 3e199}, geom.Point{}),
	line(geom.Point{X: 5e-324, Y: 1e-320}, geom.Point{}),
	line(geom.Point{}, geom.Point{X: 3, Y: 4}),
	line(geom.Point{X: 1, Y: 2}, geom.Point{X: 0, Y: 1}),
}

// scattered places n cities on a fixed pseudo-random 100x100 grid.
func scattered(n int) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = geom.Point{X: float64(i * 37 % 101), Y: float64(i * 53 % 97)}
	}
	return out
}

// withCity returns a layout of scattered cities whose second city is c.
func withCity(c geom.Point) func(n int) []geom.Point {
	return func(n int) []geom.Point {
		out := scattered(n)
		out[1] = c
		return out
	}
}

// line returns a layout that places city i at origin + i*step.
func line(step, origin geom.Point) func(n int) []geom.Point {
	return func(n int) []geom.Point {
		out := make([]geom.Point, n)
		for i := range out {
			out[i] = geom.Point{X: origin.X + float64(i)*step.X, Y: origin.Y + float64(i)*step.Y}
		}
		return out
	}
}

// FuzzSolveCoordinates drives raw city coordinates through the facade:
// an instance Validate refuses must fail the solve with an error, never
// a panic, and any other must solve to a valid tour whose reported
// length is finite and matches the tour. The seeds sit on both sides of
// the one-level case (cluster.TopThreshold cities) under every metric.
func FuzzSolveCoordinates(f *testing.F) {
	for _, layout := range fuzzLayouts {
		for _, n := range []int{5, 11, 40, 200} {
			for metric := byte(0); metric < 5; metric++ {
				f.Add(encodeCities(metric, layout(n)))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeCities(data)
		verr := in.Validate()
		rep, err := cimsa.Solve(in, cimsa.Options{Seed: 1, SkipHardware: true})
		if verr != nil {
			if err == nil {
				t.Fatalf("solve accepted an instance Validate refuses: %v", verr)
			}
			return
		}
		if err != nil {
			t.Fatalf("solve of a valid %d-city %v instance failed: %v", in.N(), in.Metric, err)
		}
		if err := rep.Tour.Validate(in.N()); err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(rep.Length) || math.IsInf(rep.Length, 0) || rep.Length != rep.Tour.Length(in) {
			t.Fatalf("reported length %v, tour length %v", rep.Length, rep.Tour.Length(in))
		}
	})
}
