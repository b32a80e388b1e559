package geom

import "slices"

// HilbertOrder is the number of bits per coordinate used when mapping
// points onto the Hilbert curve. 16 bits per axis gives a 2^32-cell grid,
// ample resolution for TSPLIB-scale instances.
const HilbertOrder = 16

// HilbertD2XY converts a distance d along the Hilbert curve of the given
// order into grid coordinates (x, y). It is the inverse of HilbertXY2D.
func HilbertD2XY(order uint, d uint64) (x, y uint32) {
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

// HilbertXY2D converts grid coordinates (x, y) into a distance along the
// Hilbert curve of the given order.
func HilbertXY2D(order uint, x, y uint32) uint64 {
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

// HilbertKeys maps each point to its Hilbert-curve index within the
// bounding box of pts. Degenerate boxes (all points on a line or a single
// point) are handled by collapsing the zero-extent axis.
func HilbertKeys(pts []Point) []uint64 {
	if len(pts) == 0 {
		return nil
	}
	b := Bounds(pts)
	w, h := b.Width(), b.Height()
	if w == 0 {
		w = 1
	}
	if h == 0 {
		h = 1
	}
	const side = 1<<HilbertOrder - 1
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		gx := uint32((p.X - b.MinX) / w * side)
		gy := uint32((p.Y - b.MinY) / h * side)
		keys[i] = HilbertXY2D(HilbertOrder, gx, gy)
	}
	return keys
}

// HilbertSort returns the indices of pts sorted by Hilbert-curve order.
// Ties are broken by the original index so the result is deterministic.
// pts may hold at most 2^32 points.
func HilbertSort(pts []Point) []int {
	keys := HilbertKeys(pts)
	// A key spans 2·HilbertOrder = 32 bits, so packing the index into the
	// low half makes every value distinct and ordered by (key, index): a
	// plain integer sort, with no comparator calls or index indirection.
	for i, k := range keys {
		keys[i] = k<<32 | uint64(i)
	}
	slices.Sort(keys)
	idx := make([]int, len(pts))
	for i, k := range keys {
		idx[i] = int(uint32(k))
	}
	return idx
}
