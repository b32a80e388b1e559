package cim

import (
	"fmt"

	"cimsa/internal/fixed"
)

// The window's test references: the per-cell observed and written
// codes (Weight, CleanWeight), the bit-plane adder-tree MAC
// (LocalEnergy), its per-column shortcut over the active rows
// (ColumnSum) and the swap ΔH built from four LocalEnergy MACs
// (refSwapDelta). Production evaluates swaps with the memoised fused
// kernel behind Window.SwapDelta; these are the definitions it is
// checked against.

// Weight returns the code the compute path currently observes.
func (w *Window) Weight(row, col int) uint8 {
	if w.nLSB <= 0 {
		return w.CleanWeight(row, col)
	}
	return w.observed(col*w.Rows(), row, col)
}

// CleanWeight returns the written code.
func (w *Window) CleanWeight(row, col int) uint8 { return w.clean[col*w.Rows()+row] }

// rowBits materializes the input bit per window row for the given spin
// state, reusing buf when it has capacity.
func (w *Window) rowBits(in Inputs, buf []uint8) []uint8 {
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
func (w *Window) LocalEnergy(in Inputs, i, k int, scratch []uint8) int {
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
func (w *Window) ColumnSum(activeRows []int, col int) int {
	total := 0
	for _, r := range activeRows {
		total += int(w.Weight(r, col))
	}
	return total
}

// ActiveRows fills buf with the indices of rows whose input bit is 1 for
// the given spin state: one row per order slot plus the two boundary
// rows when present.
func (w *Window) ActiveRows(in Inputs, buf []int) []int {
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
func (w *Window) refSwapDelta(in Inputs, i, j int, scratch []uint8) int {
	k, l := in.Order[i], in.Order[j]
	before := w.LocalEnergy(in, i, k, scratch) + w.LocalEnergy(in, j, l, scratch)
	in.Order[i], in.Order[j] = l, k
	after := w.LocalEnergy(in, i, l, scratch) + w.LocalEnergy(in, j, k, scratch)
	in.Order[i], in.Order[j] = k, l
	return after - before
}
