package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEuclid2DRounds(t *testing.T) {
	d := Euclid2D.Dist(Point{0, 0}, Point{1, 1})
	if d != 1 { // sqrt(2) = 1.414 rounds to 1
		t.Fatalf("EUC_2D (0,0)-(1,1) = %v, want 1", d)
	}
	d = Euclid2D.Dist(Point{0, 0}, Point{3, 4})
	if d != 5 {
		t.Fatalf("EUC_2D 3-4-5 triangle = %v, want 5", d)
	}
}

func TestCeil2DRoundsUp(t *testing.T) {
	d := Ceil2D.Dist(Point{0, 0}, Point{1, 1})
	if d != 2 {
		t.Fatalf("CEIL_2D (0,0)-(1,1) = %v, want 2", d)
	}
	if got := Ceil2D.Dist(Point{0, 0}, Point{3, 4}); got != 5 {
		t.Fatalf("CEIL_2D exact distance = %v, want 5", got)
	}
}

func TestExactMetric(t *testing.T) {
	d := Exact.Dist(Point{0, 0}, Point{1, 1})
	if math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Fatalf("Exact (0,0)-(1,1) = %v, want sqrt(2)", d)
	}
}

func TestAttDist(t *testing.T) {
	// ATT distance is ceil-like: rij = sqrt(d^2/10), rounded up when the
	// nearest integer is below the true value.
	d := Att.Dist(Point{0, 0}, Point{10, 0})
	rij := math.Sqrt(100.0 / 10.0) // 3.1623 -> round 3 < rij -> 4
	if d != math.Round(rij)+1 {
		t.Fatalf("ATT distance = %v, want %v", d, math.Round(rij)+1)
	}
}

func TestGeoDistKnownValue(t *testing.T) {
	// Two points one degree of longitude apart on the equator:
	// ~111 km on the TSPLIB idealized Earth.
	d := Geo.Dist(Point{0, 0}, Point{0, 1})
	if d < 100 || d < 110 && d > 120 {
		if d < 100 || d > 120 {
			t.Fatalf("GEO 1-degree distance = %v, want ~111", d)
		}
	}
}

func TestGeoDistSymmetric(t *testing.T) {
	a, b := Point{40.3, -74.5}, Point{33.45, -112.04}
	if Geo.Dist(a, b) != Geo.Dist(b, a) {
		t.Fatal("GEO distance not symmetric")
	}
}

func TestMetricProperties(t *testing.T) {
	for _, m := range []Metric{Euclid2D, Ceil2D, Att, Exact} {
		f := func(ax, ay, bx, by float64) bool {
			a := Point{clampCoord(ax), clampCoord(ay)}
			b := Point{clampCoord(bx), clampCoord(by)}
			dab := m.Dist(a, b)
			dba := m.Dist(b, a)
			return dab >= 0 && dab == dba && m.Dist(a, a) == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("metric %v violates symmetry/non-negativity: %v", m, err)
		}
	}
}

func clampCoord(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestParseMetricRoundTrip(t *testing.T) {
	for _, m := range []Metric{Euclid2D, Ceil2D, Geo, Att, Exact} {
		got, err := ParseMetric(m.String())
		if err != nil {
			t.Fatalf("ParseMetric(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("ParseMetric(%q) = %v, want %v", m.String(), got, m)
		}
	}
	if _, err := ParseMetric("EXPLICIT"); err == nil {
		t.Fatal("ParseMetric accepted unsupported type")
	}
}

func TestBounds(t *testing.T) {
	pts := []Point{{1, 5}, {-2, 3}, {4, -1}}
	b := Bounds(pts)
	want := BBox{-2, -1, 4, 5}
	if b != want {
		t.Fatalf("bounds = %+v, want %+v", b, want)
	}
	if b.Width() != 6 || b.Height() != 6 {
		t.Fatalf("box dims wrong: w=%v h=%v", b.Width(), b.Height())
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Fatalf("bounds does not contain its own point %v", p)
		}
	}
	if b.Contains(Point{10, 10}) {
		t.Fatal("bounds contains far point")
	}
}

func TestBoundsPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bounds(nil) did not panic")
		}
	}()
	Bounds(nil)
}
