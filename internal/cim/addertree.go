// Package cim is the functional model of the digital compute-in-memory
// macro (§III of the paper): 14T bit cells whose NOR gates multiply a
// 1-bit input by a stored weight bit, cell and window MUX transmission
// gates that select one column of one window, and an adder tree that
// sums a *section* of the column — the flexibility that makes the
// compact O(N) weight mapping legal where analog CIM would corrupt it.
//
// Everything here is bit-exact: the clustered annealer computes its swap
// energies through these models, so hardware/software equivalence is a
// test, not an assumption.
package cim

// AdderTree reduces one window column: n one-bit products per bit plane,
// then shift-and-add across the 8 planes. It mirrors the hardware
// structure so its adder count is available to the PPA model;
// the bit-serial reduction itself is the tests' oracle (SumColumn in
// reference_test.go), which the swap kernel's column sums must equal.
type AdderTree struct {
	// Inputs is the number of one-bit products the tree sums (p²+2p).
	Inputs int
}

// AdderCount approximates the number of single-bit full adders in the
// reduction tree for w-bit operands: (Inputs-1) adders of growing width.
func (t AdderTree) AdderCount(bits int) int {
	if t.Inputs <= 1 {
		return 0
	}
	// Each 2:1 reduction of b-bit operands needs ~b FAs; widths grow by
	// one bit per level. Sum over the binary reduction tree.
	total := 0
	n := t.Inputs
	width := bits
	for n > 1 {
		pairs := n / 2
		total += pairs * width
		n = (n + 1) / 2
		width++
	}
	return total
}
