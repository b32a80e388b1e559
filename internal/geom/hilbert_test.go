package geom

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// hilbertD2XY converts a distance d along the Hilbert curve of the given
// order into grid coordinates (x, y). It is the inverse of hilbertXY2D.
func hilbertD2XY(order uint, d uint64) (x, y uint32) {
	var rx, ry uint64
	t := d
	for s := uint64(1); s < 1<<order; s <<= 1 {
		rx = 1 & (t / 2)
		ry = 1 & (t ^ rx)
		x64, y64 := hilbertRot(s, uint64(x), uint64(y), rx, ry)
		x, y = uint32(x64), uint32(y64)
		x += uint32(s * rx)
		y += uint32(s * ry)
		t /= 4
	}
	return
}

// hilbertXY2D converts grid coordinates (x, y) into a distance along the
// Hilbert curve of the given order, one bit level at a time: the
// reference hilbertKey's table encoder must reproduce.
func hilbertXY2D(order uint, x, y uint32) uint64 {
	var d uint64
	xx, yy := uint64(x), uint64(y)
	for s := uint64(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint64
		if xx&s > 0 {
			rx = 1
		}
		if yy&s > 0 {
			ry = 1
		}
		d += s * s * ((3 * rx) ^ ry)
		xx, yy = hilbertRot(s, xx, yy, rx, ry)
	}
	return d
}

// hilbertRot rotates/flips a quadrant appropriately for the curve
// construction.
func hilbertRot(s, x, y, rx, ry uint64) (uint64, uint64) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// TestHilbertKeyMatchesReference pins the table encoder to the
// bit-at-a-time reference on random cells and on every combination of
// the grid's extreme coordinates.
func TestHilbertKeyMatchesReference(t *testing.T) {
	const top = 1<<HilbertOrder - 1
	check := func(x, y uint32) {
		if got, want := hilbertKey(x, y), hilbertXY2D(HilbertOrder, x, y); got != want {
			t.Fatalf("hilbertKey(%d, %d) = %d, reference %d", x, y, got, want)
		}
	}
	for _, x := range []uint32{0, 1, top - 1, top} {
		for _, y := range []uint32{0, 1, top - 1, top} {
			check(x, y)
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for n := 0; n < 200000; n++ {
		check(r.Uint32N(top+1), r.Uint32N(top+1))
	}
}

func TestHilbertRoundTrip(t *testing.T) {
	f := func(xRaw, yRaw uint16) bool {
		x, y := uint32(xRaw), uint32(yRaw)
		d := hilbertXY2D(HilbertOrder, x, y)
		gx, gy := hilbertD2XY(HilbertOrder, d)
		return gx == x && gy == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// Consecutive curve indices must map to grid cells exactly one step
	// apart (the defining property of the Hilbert curve).
	const order = 6
	px, py := hilbertD2XY(order, 0)
	for d := uint64(1); d < 1<<(2*order); d++ {
		x, y := hilbertD2XY(order, d)
		dx := int64(x) - int64(px)
		dy := int64(y) - int64(py)
		if dx*dx+dy*dy != 1 {
			t.Fatalf("curve jump at d=%d: (%d,%d)->(%d,%d)", d, px, py, x, y)
		}
		px, py = x, y
	}
}

func TestHilbertCoversGrid(t *testing.T) {
	const order = 4
	seen := make(map[[2]uint32]bool)
	for d := uint64(0); d < 1<<(2*order); d++ {
		x, y := hilbertD2XY(order, d)
		key := [2]uint32{x, y}
		if seen[key] {
			t.Fatalf("cell (%d,%d) visited twice", x, y)
		}
		seen[key] = true
	}
	if len(seen) != 1<<(2*order) {
		t.Fatalf("curve covered %d cells, want %d", len(seen), 1<<(2*order))
	}
}

func TestHilbertKeysEmpty(t *testing.T) {
	if keys := HilbertKeys(nil); keys != nil {
		t.Fatalf("HilbertKeys(nil) = %v, want nil", keys)
	}
}

func TestHilbertKeysDegenerate(t *testing.T) {
	// All points identical: must not divide by zero.
	pts := []Point{{5, 5}, {5, 5}, {5, 5}}
	keys := HilbertKeys(pts)
	if len(keys) != 3 {
		t.Fatalf("got %d keys", len(keys))
	}
	if keys[0] != keys[1] || keys[1] != keys[2] {
		t.Fatal("identical points got different keys")
	}
	// Collinear points: degenerate on one axis only.
	line := []Point{{0, 1}, {1, 1}, {2, 1}}
	lk := HilbertKeys(line)
	if lk[0] == lk[2] {
		t.Fatal("distinct collinear points got identical keys")
	}
}

func TestHilbertSortDeterministic(t *testing.T) {
	pts := []Point{{3, 1}, {0, 0}, {2, 2}, {1, 3}, {3, 1}}
	a := HilbertSort(pts)
	b := HilbertSort(pts)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("HilbertSort not deterministic")
		}
	}
	if len(a) != len(pts) {
		t.Fatalf("sort returned %d indices for %d points", len(a), len(pts))
	}
	seen := make([]bool, len(pts))
	for _, i := range a {
		if seen[i] {
			t.Fatal("HilbertSort repeated an index")
		}
		seen[i] = true
	}
}

func TestHilbertSortLocality(t *testing.T) {
	// Points sorted by Hilbert order should have a much shorter
	// visit-in-order path than the same points in arbitrary order.
	var pts []Point
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			pts = append(pts, Point{float64(i), float64(j)})
		}
	}
	order := HilbertSort(pts)
	var hilbertLen float64
	for i := 1; i < len(order); i++ {
		hilbertLen += Exact.Dist(pts[order[i-1]], pts[order[i]])
	}
	var rawLen float64
	for i := 1; i < len(pts); i++ {
		rawLen += Exact.Dist(pts[i-1], pts[i])
	}
	// Row-major order snakes back across the grid; Hilbert order should
	// be strictly better than 1.2x the minimum possible (1023 unit steps).
	if hilbertLen > 1.3*1023 {
		t.Fatalf("hilbert path %v too long (raw %v)", hilbertLen, rawLen)
	}
}
