package cim

import (
	"fmt"

	"cimsa/internal/fixed"
	"cimsa/internal/noise"
)

// Shape is a window's geometry: the cluster's element count P and the
// element counts PPrev/PNext of its previous and next clusters.
type Shape struct {
	P, PPrev, PNext int
}

// Rows returns the window's row count: P² own spins + boundary spins.
func (s Shape) Rows() int { return s.P*s.P + s.PPrev + s.PNext }

// Cols returns the window's column count: P².
func (s Shape) Cols() int { return s.P * s.P }

// Elems returns the number of elements the window couples: its own
// plus both neighbours'. A distance block (see Load) has one row each.
func (s Shape) Elems() int { return s.P + s.PPrev + s.PNext }

// Window is the compact-mapped weight block of one cluster (Fig. 3c):
// P² columns (one per own spin: order slot i × element k) and
// P² + PPrev + PNext rows (own spins plus the boundary spins of the
// previous and next clusters). Only couplings between adjacent order
// slots are nonzero, but *all* cells physically exist and are exposed to
// pseudo-read noise — flipped zero-weights contribute annealing noise
// exactly as on silicon.
//
// Pseudo-reads are lazy: WriteBack only starts an epoch, and a cell is
// read through the fabric the first time the compute path reads it in
// that epoch. Every read is a pure function of (cell, stored code,
// epoch), so the codes observed are exactly those an eager sweep over
// every cell would produce. Cells the anneal never reads — typically
// most of a window — are never hashed. A clean epoch (nLSB <= 0) skips
// the cache and reads the written codes directly.
type Window struct {
	// Index is the window's position in the chip (= cluster index at the
	// current level); it namespaces the cell IDs.
	Index int
	// Shape holds P, the cluster's element count, and PPrev/PNext, those
	// of the neighbouring clusters.
	Shape
	// Quant converts between distances and 8-bit codes for this window.
	Quant fixed.Quantizer
	// clean holds the written codes column-major, clean[col*Rows()+row],
	// so the rows of one MAC's column share a cache line or two.
	clean []uint8
	// seen caches the codes the compute path has observed since the last
	// noisy write-back, each tagged with seenTag; 0 marks a cell not read
	// yet. Clean epochs leave it alone.
	seen []uint16
	// epoch is the current pseudo-read pass and nLSB its noisy-LSB count;
	// with nLSB <= 0 every cell reads back clean.
	epoch noise.Epoch
	nLSB  int
}

// seenTag marks a seen entry as holding an observed code (in its low
// byte), so the zero value means "not read this epoch".
const seenTag = 1 << 8

// ProvisionedRows/ProvisionedCols give the hardware shape for a maximum
// cluster size pMax: (pMax²+2pMax) × pMax², Table II's "window size".
func ProvisionedRows(pMax int) int { return pMax*pMax + 2*pMax }

// ProvisionedCols gives the provisioned column count per window.
func ProvisionedCols(pMax int) int { return pMax * pMax }

// NewWindows allocates one window per shape, Index = position, with all
// their cells carved from two shared slabs: a level of windows costs a
// few allocations instead of a few per window. Load fills each window.
func NewWindows(shapes []Shape) []Window {
	cells := 0
	for _, s := range shapes {
		cells += s.Rows() * s.Cols()
	}
	clean := make([]uint8, cells)
	seen := make([]uint16, cells)
	ws := make([]Window, len(shapes))
	off := 0
	for i, s := range shapes {
		end := off + s.Rows()*s.Cols()
		ws[i] = Window{Index: i, Shape: s, clean: clean[off:end:end], seen: seen[off:end:end]}
		off = end
	}
	return ws
}

// NewWindow builds the window for a cluster from its distance blocks:
//
//	intra[m][k]:  distance between own elements m and k (P×P)
//	fromPrev[m][k]: distance from prev cluster's element m to own k
//	toNext[m][k]:   distance from own element k to next cluster's element m
//
// It is Load over the stacked blocks, for callers holding them apart.
func NewWindow(index int, intra, fromPrev, toNext [][]float64) (*Window, error) {
	p := len(intra)
	if p == 0 {
		return nil, fmt.Errorf("cim: empty window")
	}
	s := Shape{P: p, PPrev: len(fromPrev), PNext: len(toNext)}
	dist := make([]float64, 0, s.Elems()*p)
	for _, block := range [][][]float64{intra, fromPrev, toNext} {
		for _, row := range block {
			if len(row) != p {
				return nil, fmt.Errorf("cim: distance block width %d, want %d", len(row), p)
			}
			dist = append(dist, row...)
		}
	}
	w := &NewWindows([]Shape{s})[0]
	w.Index = index
	if err := w.Load(dist); err != nil {
		return nil, err
	}
	return w, nil
}

// maxP is the largest supported cluster size, for the window's own
// cluster and for each neighbour; it sizes Load's code buffer.
const maxP = 8

// Load writes the window's weights from its distance block: Elems()×P
// distances, row-major, from each element to each own element k. The
// first P rows are the intra block (own element m to own k), the next
// PPrev rows run from the previous cluster's elements and the last PNext
// from the next cluster's. Distances are quantized against the window's
// own maximum (per-window scaling, §III.B). The window reads back clean
// until its first WriteBack.
func (w *Window) Load(dist []float64) error {
	p := w.P
	if p < 1 || p > maxP || w.PPrev < 0 || w.PPrev > maxP || w.PNext < 0 || w.PNext > maxP {
		return fmt.Errorf("cim: unsupported window shape %+v", w.Shape)
	}
	if len(dist) != w.Elems()*p {
		return fmt.Errorf("cim: %d distances for a %d×%d block", len(dist), w.Elems(), p)
	}
	// Find the window's full scale.
	maxW := 0.0
	for _, v := range dist {
		if v < 0 {
			return fmt.Errorf("cim: negative distance %v", v)
		}
		if v > maxW {
			maxW = v
		}
	}
	w.Quant = fixed.NewQuantizer(maxW)
	var codeBuf [3 * maxP * maxP]uint8
	code := codeBuf[:len(dist)]
	for i, v := range dist {
		code[i] = w.Quant.Quantize(v)
	}
	clear(w.clean)
	own, rows := p*p, w.Rows()
	// Fill couplings. Column (i,k): own order slot i, element k.
	for i := 0; i < p; i++ {
		for k := 0; k < p; k++ {
			col := i*p + k
			// Own rows (j,m): coupling only for adjacent order slots.
			for _, j := range [2]int{i - 1, i + 1} {
				if j < 0 || j >= p {
					continue
				}
				for m := 0; m < p; m++ {
					w.clean[col*rows+j*p+m] = code[m*p+k]
				}
			}
			// Prev-boundary rows: couple only to order slot 0.
			if i == 0 {
				for m := 0; m < w.PPrev; m++ {
					w.clean[col*rows+own+m] = code[(p+m)*p+k]
				}
			}
			// Next-boundary rows: couple only to the last order slot.
			if i == p-1 {
				for m := 0; m < w.PNext; m++ {
					w.clean[col*rows+own+w.PPrev+m] = code[(p+w.PPrev+m)*p+k]
				}
			}
		}
	}
	w.WriteBack(nil, 0)
	return nil
}

// MaskWeights truncates the stored clean codes to the given number of
// significant bits by zeroing the lower (8 − bits) LSBs (a precision
// ablation: the paper chooses 8-bit weights "to ensure solution
// quality"). It leaves the window reading back clean, so it belongs
// before the first WriteBack of an epoch.
func (w *Window) MaskWeights(bits int) {
	if bits >= fixed.Bits || bits < 1 {
		return
	}
	mask := uint8(0xFF) << uint(fixed.Bits-bits)
	for i, c := range w.clean {
		w.clean[i] = c & mask
	}
	w.WriteBack(nil, 0)
}

// WriteBack restores the clean weights and starts a pseudo-read epoch
// with nLSB noisy LSBs: from now on every stored bit reads through ep
// (the fabric's pass at the epoch's supply), so the device model's
// error process applies. With nLSB <= 0 the window reads back clean and
// ep may be nil.
func (w *Window) WriteBack(ep noise.Epoch, nLSB int) {
	w.epoch, w.nLSB = ep, nLSB
	if nLSB > 0 {
		clear(w.seen)
	}
}

// pseudoRead reads cell (row, col) through the current epoch, caches the
// observed code and returns its tagged seen entry.
func (w *Window) pseudoRead(row, col int) uint16 {
	idx := col*w.Rows() + row
	code := w.clean[idx]
	if w.nLSB > 0 {
		code = w.epoch.ReadCode(code, noise.CellID(w.Index, row, col, 0), w.nLSB)
	}
	v := seenTag | uint16(code)
	w.seen[idx] = v
	return v
}

// Weight returns the code the compute path currently observes.
func (w *Window) Weight(row, col int) uint8 {
	if w.nLSB <= 0 {
		return w.CleanWeight(row, col)
	}
	v := w.seen[col*w.Rows()+row]
	if v == 0 {
		v = w.pseudoRead(row, col)
	}
	return uint8(v)
}

// CleanWeight returns the written code.
func (w *Window) CleanWeight(row, col int) uint8 { return w.clean[col*w.Rows()+row] }

// Inputs describes the spin state feeding one window MAC: the cluster's
// own order plus the facing boundary elements of its neighbours.
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

// rowBits materializes the input bit per window row for the given spin
// state, reusing buf when it has capacity.
func (w *Window) rowBits(in Inputs, buf []uint8) []uint8 {
	rows := w.Rows()
	if cap(buf) < rows {
		buf = make([]uint8, rows)
	}
	bits := buf[:rows]
	for i := range bits {
		bits[i] = 0
	}
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
	// in place to avoid a per-MAC allocation.
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
// the set of rows whose input bit is 1. It is mathematically identical
// to LocalEnergy with the equivalent one-hot input vector (the NOR
// multiplier zeroes every inactive row), but skips the inactive rows and
// bit planes — the fast path the annealer's inner loop uses. Equivalence
// is enforced by tests.
func (w *Window) ColumnSum(activeRows []int, col int) int {
	total := 0
	if w.nLSB <= 0 {
		clean := w.clean[col*w.Rows():]
		for _, r := range activeRows {
			total += int(clean[r])
		}
		return total
	}
	seen := w.seen[col*w.Rows():]
	for _, r := range activeRows {
		v := seen[r]
		if v == 0 {
			v = w.pseudoRead(r, col)
		}
		total += int(uint8(v))
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

// SwapDelta evaluates the paper's four-MAC swap decision for order slots
// i and j holding elements k and l: ΔH = H(σ'_il)+H(σ'_jk) − H(σ_ik) −
// H(σ_jl), in quantized units. The order in Inputs is not modified.
func (w *Window) SwapDelta(in Inputs, i, j int, scratch []uint8) int {
	k, l := in.Order[i], in.Order[j]
	before := w.LocalEnergy(in, i, k, scratch) + w.LocalEnergy(in, j, l, scratch)
	in.Order[i], in.Order[j] = l, k
	after := w.LocalEnergy(in, i, l, scratch) + w.LocalEnergy(in, j, k, scratch)
	in.Order[i], in.Order[j] = k, l
	return after - before
}
