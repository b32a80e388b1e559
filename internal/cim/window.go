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
//
// SwapDelta memoises each slot pair's ΔH within an epoch, keyed on the
// packed Inputs; WriteBack clears the memo.
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
	// memo holds one entry per slot pair i < j, at j(j−1)/2 + i: the
	// swapKey of the inputs it was computed for, shifted up by 16, over
	// ΔH as an int16. 0 marks an empty entry (every key has its valid
	// bit set).
	memo []uint64
}

// seenTag marks a seen entry as holding an observed code (in its low
// byte), so the zero value means "not read this epoch".
const seenTag = 1 << 8

// ProvisionedRows/ProvisionedCols give the hardware shape for a maximum
// cluster size pMax: (pMax²+2pMax) × pMax², Table II's "window size".
func ProvisionedRows(pMax int) int { return pMax*pMax + 2*pMax }

// ProvisionedCols gives the provisioned column count per window.
func ProvisionedCols(pMax int) int { return pMax * pMax }

// pairs returns the number of slot pairs i < j of a P-slot window: the
// length of its swap memo.
func (s Shape) pairs() int { return s.P * (s.P - 1) / 2 }

// NewWindows allocates one window per shape, Index = position, with all
// their cells and swap memos carved from three shared slabs: a level of
// windows costs a few allocations instead of a few per window. Load
// fills each window.
func NewWindows(shapes []Shape) []Window {
	cells, pairs := 0, 0
	for _, s := range shapes {
		cells += s.Rows() * s.Cols()
		pairs += s.pairs()
	}
	clean := make([]uint8, cells)
	seen := make([]uint16, cells)
	memo := make([]uint64, pairs)
	ws := make([]Window, len(shapes))
	off, moff := 0, 0
	for i, s := range shapes {
		end, mend := off+s.Rows()*s.Cols(), moff+s.pairs()
		ws[i] = Window{Index: i, Shape: s, clean: clean[off:end:end], seen: seen[off:end:end], memo: memo[moff:mend:mend]}
		off, moff = end, mend
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
// ep may be nil. It is the one place the swap memo is invalidated: the
// epoch changes only here, and Load and MaskWeights, which change the
// stored codes, both end in a WriteBack.
func (w *Window) WriteBack(ep noise.Epoch, nLSB int) {
	w.epoch, w.nLSB = ep, nLSB
	if nLSB > 0 {
		clear(w.seen)
	}
	clear(w.memo)
}

// observed returns the code a noisy epoch shows at cell (row, col),
// pseudo-reading the cell on its first use; base is col*Rows(), the
// column's offset in the column-major cells.
func (w *Window) observed(base, row, col int) uint8 {
	if v := w.seen[base+row]; v != 0 {
		return uint8(v)
	}
	return w.pseudoRead(row, col)
}

// pseudoRead reads cell (row, col) through the current noisy epoch and
// caches and returns the observed code.
func (w *Window) pseudoRead(row, col int) uint8 {
	idx := col*w.Rows() + row
	code := w.epoch.ReadCode(w.clean[idx], noise.CellID(w.Index, row, col, 0), w.nLSB)
	w.seen[idx] = seenTag | uint16(code)
	return code
}

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

// SwapDelta evaluates the paper's four-MAC swap decision for order slots
// i and j holding elements k and l: ΔH = H(σ'_il)+H(σ'_jk) − H(σ_ik) −
// H(σ_jl), in quantized units. The order in Inputs is not modified.
//
// ΔH is an integer function of the stored codes, the epoch, the inputs
// and the unordered pair {i, j}, and within one write-back epoch only
// the inputs can change. So each pair's ΔH is memoised under the packed
// inputs (swapKey) until the next WriteBack: a repeat proposal with
// unchanged inputs returns the stored value and reads no cell. An
// accepted swap, a neighbour's new boundary element or a corrupted spin
// input changes the key and so misses.
func (w *Window) SwapDelta(in Inputs, i, j int) int {
	if len(in.Order) != w.P {
		panic(fmt.Sprintf("cim: order length %d, window P %d", len(in.Order), w.P))
	}
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	key := swapKey(in.Order, in.PrevElem, in.NextElem)
	e := &w.memo[j*(j-1)/2+i]
	if *e>>16 == key {
		return int(int16(uint16(*e)))
	}
	d := w.swapDelta(in, i, j)
	*e = key<<16 | uint64(uint16(int16(d)))
	return d
}

// swapKey packs the inputs a window's ΔH depends on: the slots'
// elements in three bits each, slot 0 highest (at most maxP = 8 slots,
// each holding an element below 8, so the low 24 bits), then
// prevElem+1 and nextElem+1 (0 when absent) in four bits each, under a
// valid bit that keeps every key distinct from an empty memo entry.
func swapKey(order []int, prevElem, nextElem int) uint64 {
	k := uint64(0)
	for _, e := range order {
		k = k<<3 | uint64(e)
	}
	return k | uint64(prevElem+1)<<24 | uint64(nextElem+1)<<28 | 1<<32
}

// swapDelta is SwapDelta's fused kernel: the four column sums of the
// swap over the active rows (one per order slot, plus the boundary rows
// when present), the before pair and then the after pair, whose slot-i
// and slot-j rows exchange elements. The NOR multiplier zeroes every
// inactive row, so summing the active rows' codes is the adder-tree
// result. Each sum is at most 255 × (maxP+2), so ΔH fits the memo's
// int16.
func (w *Window) swapDelta(in Inputs, i, j int) int {
	p, n := w.P, w.Rows()
	var buf [maxP + 2]int
	rows := buf[:0]
	for s, e := range in.Order {
		rows = append(rows, s*p+e)
	}
	if in.PrevElem >= 0 {
		rows = append(rows, p*p+in.PrevElem)
	}
	if in.NextElem >= 0 {
		rows = append(rows, p*p+w.PPrev+in.NextElem)
	}
	k, l := in.Order[i], in.Order[j]
	// Row and column of spin (slot, elem) share the slot*p+elem layout.
	ik, jl, il, jk := i*p+k, j*p+l, i*p+l, j*p+k
	before, after := 0, 0
	if w.nLSB <= 0 {
		c := w.clean
		for _, r := range rows {
			before += int(c[ik*n+r]) + int(c[jl*n+r])
		}
		rows[i], rows[j] = il, jk
		for _, r := range rows {
			after += int(c[il*n+r]) + int(c[jk*n+r])
		}
		return after - before
	}
	for _, r := range rows {
		before += int(w.observed(ik*n, r, ik)) + int(w.observed(jl*n, r, jl))
	}
	rows[i], rows[j] = il, jk
	for _, r := range rows {
		after += int(w.observed(il*n, r, il)) + int(w.observed(jk*n, r, jk))
	}
	return after - before
}
