package geom

import "slices"

// HilbertOrder is the number of bits per coordinate used when mapping
// points onto the Hilbert curve. 16 bits per axis gives a 2^32-cell grid,
// ample resolution for TSPLIB-scale instances.
const HilbertOrder = 16

// hilbertTable drives hilbertKey four bits per axis at a time. Curve
// state is which transform of the quadrant frame is in force: bit 0
// set when x and y are swapped, bit 1 when both are complemented (the
// two commute, so they compose into these four states). The entry for
// state<<8 | x nibble<<4 | y nibble holds the four base-4 curve digits
// of that nibble pair, most significant first, in its low byte, and
// the state after them in the two bits above.
var hilbertTable = func() (t [1024]uint16) {
	for idx := range t {
		state, x, y := idx>>8, idx>>4&15, idx&15
		digits := 0
		for b := 3; b >= 0; b-- {
			rx, ry := x>>b&1, y>>b&1
			if state&1 != 0 {
				rx, ry = ry, rx
			}
			if state&2 != 0 {
				rx, ry = rx^1, ry^1
			}
			digits = digits<<2 | (3 * rx) ^ ry
			if ry == 0 {
				// Enter the lower quadrant: swap the axes, and
				// complement them too on its right-hand half.
				state ^= 1 | rx<<1
			}
		}
		t[idx] = uint16(state<<8 | digits)
	}
	return t
}()

// hilbertKey is the distance of grid cell (x, y) along the Hilbert curve
// of order HilbertOrder: four table steps, with no branch on the
// coordinates.
func hilbertKey(x, y uint32) uint64 {
	var d uint64
	var state uint16
	for shift := HilbertOrder - 4; shift >= 0; shift -= 4 {
		e := hilbertTable[(state<<8|uint16(x>>shift&15)<<4|uint16(y>>shift&15))&1023]
		d = d<<8 | uint64(e&0xff)
		state = e >> 8
	}
	return d
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
		keys[i] = hilbertKey(gx, gy)
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
