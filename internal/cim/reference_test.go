package cim

import (
	"fmt"

	"cimsa/internal/fixed"
	"cimsa/internal/noise"
)

// The window's test references: the per-cell observed and written
// codes (Weight, CleanWeight), the bit-plane adder-tree MAC
// (LocalEnergy), its per-column shortcut over the active rows
// (ColumnSum) and the swap ΔH built from four LocalEnergy MACs
// (refSwapDelta), over the cell's NOR multiply (NorMultiply) and the
// adder tree's bit-serial column MAC (AdderTree.SumColumn). Production evaluates swaps with the memoised fused
// kernel behind Level.SwapDelta; these are the definitions it is
// checked against. They take the spin state as unpacked Inputs.

// Inputs describes the spin state feeding one window MAC, unpacked: the
// cluster's own order plus the facing boundary elements of its
// neighbours.
type Inputs struct {
	// Order maps the cluster's order slots to element indices.
	Order []int
	// PrevElem is the neighbouring element adjacent to slot 0 (the prev
	// cluster's last-ordered element); -1 if absent.
	PrevElem int
	// NextElem is the element adjacent to the last slot (the next
	// cluster's first-ordered element); -1 if absent.
	NextElem int
}

// testWindow is window w of a level: the unit the references work on.
type testWindow struct {
	*Level
	*Window
	w int
}

// newTestWindow builds a one-window level from the window's distance
// blocks:
//
//	intra[m][k]:  distance between own elements m and k (P×P)
//	fromPrev[m][k]: distance from prev cluster's element m to own k
//	toNext[m][k]:   distance from own element k to next cluster's element m
//
// index namespaces the window's cell IDs.
func newTestWindow(index int, intra, fromPrev, toNext [][]float64) (testWindow, error) {
	p := len(intra)
	if p == 0 {
		return testWindow{}, fmt.Errorf("cim: empty window")
	}
	s := Shape{P: p, PPrev: len(fromPrev), PNext: len(toNext)}
	dist := make([]float64, 0, s.Elems()*p)
	for _, block := range [][][]float64{intra, fromPrev, toNext} {
		for _, row := range block {
			if len(row) != p {
				return testWindow{}, fmt.Errorf("cim: distance block width %d, want %d", len(row), p)
			}
			dist = append(dist, row...)
		}
	}
	l := NewLevel([]Shape{s})
	l.Windows[0].Index = index
	if err := l.Load(0, dist); err != nil {
		return testWindow{}, err
	}
	return testWindow{l, &l.Windows[0], 0}, nil
}

// windowOf returns window w of l as a testWindow.
func windowOf(l *Level, w int) testWindow { return testWindow{l, &l.Windows[w], w} }

// swap is Level.SwapDelta on this window with unpacked inputs.
func (w testWindow) swap(in Inputs, i, j int) int {
	return w.Level.SwapDelta(w.w, PackOrder(in.Order), in.PrevElem, in.NextElem, i, j)
}

// Weight returns the code the compute path currently observes.
func (w testWindow) Weight(row, col int) uint8 {
	if w.nLSB <= 0 {
		return w.CleanWeight(row, col)
	}
	return w.observed(w.cells+col*w.Rows(), noise.CellID(w.Index, 0, col, 0), row)
}

// CleanWeight returns the written code.
func (w testWindow) CleanWeight(row, col int) uint8 { return w.clean[w.cells+col*w.Rows()+row] }

// rowBits materializes the input bit per window row for the given spin
// state, reusing buf when it has capacity.
func (w testWindow) rowBits(in Inputs, buf []uint8) []uint8 {
	rows := w.Rows()
	if cap(buf) < rows {
		buf = make([]uint8, rows)
	}
	bits := buf[:rows]
	clear(bits)
	p := w.P
	for j, m := range in.Order {
		bits[j*p+m] = 1
	}
	if in.PrevElem >= 0 {
		bits[p*p+in.PrevElem] = 1
	}
	if in.NextElem >= 0 {
		bits[p*p+w.PPrev+in.NextElem] = 1
	}
	return bits
}

// LocalEnergy computes the MAC for the spin at (order slot i, element k):
// the adder tree sums input-bit × weight-bit products down the selected
// column. The result is in quantized units (multiply by Quant.Scale for
// distance units).
func (w testWindow) LocalEnergy(in Inputs, i, k int, scratch []uint8) int {
	if len(in.Order) != w.P {
		panic(fmt.Sprintf("cim: order length %d, window P %d", len(in.Order), w.P))
	}
	bits := w.rowBits(in, scratch)
	col := i*w.P + k
	// Same reduction as AdderTree.SumColumn, gathering the strided column
	// in place.
	total := 0
	for b := 0; b < fixed.Bits; b++ {
		planeSum := 0
		for r := 0; r < len(bits); r++ {
			planeSum += int(NorMultiply(bits[r], fixed.Bit(w.Weight(r, col), b)))
		}
		total += planeSum << uint(b)
	}
	return total
}

// ColumnSum returns the adder-tree result for the selected column given
// the set of rows whose input bit is 1: LocalEnergy with the equivalent
// one-hot input vector, skipping the inactive rows and bit planes.
func (w testWindow) ColumnSum(activeRows []int, col int) int {
	total := 0
	for _, r := range activeRows {
		total += int(w.Weight(r, col))
	}
	return total
}

// ActiveRows fills buf with the indices of rows whose input bit is 1 for
// the given spin state: one row per order slot plus the two boundary
// rows when present.
func (w testWindow) ActiveRows(in Inputs, buf []int) []int {
	rows := buf[:0]
	p := w.P
	for j, m := range in.Order {
		rows = append(rows, j*p+m)
	}
	if in.PrevElem >= 0 {
		rows = append(rows, p*p+in.PrevElem)
	}
	if in.NextElem >= 0 {
		rows = append(rows, p*p+w.PPrev+in.NextElem)
	}
	return rows
}

// refSwapDelta is the swap ΔH from four LocalEnergy MACs, H(σ'_il) +
// H(σ'_jk) − H(σ_ik) − H(σ_jl), with no memo. The order in Inputs is
// restored before it returns.
func (w testWindow) refSwapDelta(in Inputs, i, j int, scratch []uint8) int {
	k, l := in.Order[i], in.Order[j]
	before := w.LocalEnergy(in, i, k, scratch) + w.LocalEnergy(in, j, l, scratch)
	in.Order[i], in.Order[j] = l, k
	after := w.LocalEnergy(in, i, l, scratch) + w.LocalEnergy(in, j, k, scratch)
	in.Order[i], in.Order[j] = k, l
	return after - before
}

// NorMultiply is the 14T cell's compute: a NOR gate with the stored
// weight bit on one input and the (inverted) data line on the other
// realizes a 1-bit AND of input and weight. Inputs must be 0 or 1.
func NorMultiply(input, weight uint8) uint8 {
	// NOR(^in, ^w) == in AND w for one-bit signals.
	return ((input ^ 1) | (weight ^ 1)) ^ 1
}

// SumColumn computes the multi-bit MAC for one selected column: for each
// bit plane b, the tree sums the 1-bit products input[r] * weightBit,
// then the plane sums are shifted and added. inputs[r] must be 0 or 1;
// weights[r] is the 8-bit code stored in row r of the selected column.
// The result is exact (no saturation): the paper's 8-bit weights with
// p²+2p <= 24 rows need at most 8+5 bits, well within int range.
func (t AdderTree) SumColumn(inputs []uint8, weights []uint8) int {
	if len(inputs) != len(weights) {
		panic("cim: input/weight row count mismatch")
	}
	if len(inputs) != t.Inputs {
		panic("cim: row count does not match tree size")
	}
	total := 0
	for b := 0; b < fixed.Bits; b++ {
		planeSum := 0
		for r := range inputs {
			planeSum += int(NorMultiply(inputs[r], fixed.Bit(weights[r], b)))
		}
		total += planeSum << uint(b)
	}
	return total
}
