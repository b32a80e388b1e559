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

// pairs returns the number of slot pairs i < j of a P-slot window.
func (s Shape) pairs() int { return s.P * (s.P - 1) / 2 }

// Order is a cluster's slot → element map packed three bits per slot,
// slot 0 highest: a P-slot order occupies the low 3P bits. It is the
// order half of a swap's memo key, so a memo probe unpacks nothing, and
// the boundary elements and a swap are bit operations on one word.
type Order uint32

// PackOrder packs a slot → element list (elements below maxP).
func PackOrder(elems []int) Order {
	var o Order
	for _, e := range elems {
		o = o<<3 | Order(e)
	}
	return o
}

// IdentityOrder is the P-slot order holding element s at slot s.
func IdentityOrder(p int) Order {
	var o Order
	for s := 0; s < p; s++ {
		o = o<<3 | Order(s)
	}
	return o
}

// Elem returns the element at slot s of a P-slot order.
func (o Order) Elem(p, s int) int { return int(o>>(3*(p-1-s))) & 7 }

// First returns the element at slot 0 of a P-slot order.
func (o Order) First(p int) int { return int(o >> (3 * (p - 1))) }

// Last returns the element at the last slot.
func (o Order) Last() int { return int(o & 7) }

// Swap exchanges the elements at slots i and j of a P-slot order.
func (o Order) Swap(p, i, j int) Order {
	si, sj := 3*(p-1-i), 3*(p-1-j)
	x := (o>>si ^ o>>sj) & 7
	return o ^ (x<<si | x<<sj)
}

// Unpack appends the P-slot order's elements, slot 0 first, to dst.
func (o Order) Unpack(p int, dst []int) []int {
	for s := 0; s < p; s++ {
		dst = append(dst, o.Elem(p, s))
	}
	return dst
}

// Window is the compact-mapped weight block of one cluster (Fig. 3c):
// P² columns (one per own spin: order slot i × element k) and
// P² + PPrev + PNext rows (own spins plus the boundary spins of the
// previous and next clusters). Only couplings between adjacent order
// slots are nonzero, but *all* cells physically exist and are exposed to
// pseudo-read noise — flipped zero-weights contribute annealing noise
// exactly as on silicon. Its cells live in its Level's slabs.
type Window struct {
	// Index is the window's position in the chip (= cluster index at the
	// current level); it namespaces the cell IDs.
	Index int
	// Shape holds P, the cluster's element count, and PPrev/PNext, those
	// of the neighbouring clusters.
	Shape
	// Quant converts between distances and 8-bit codes for this window.
	Quant fixed.Quantizer
	// cells is the offset of the window's first cell in the level's
	// clean and seen slabs.
	cells int
}

// Level is the chip's windows for one hierarchy level, with every
// window's cells, seen cache and swap memo in three level-wide slabs
// and one write-back epoch for them all: the hardware rewrites every
// window at once, so the epoch is a property of the level.
//
// Pseudo-reads are lazy: WriteBack only starts an epoch, and a cell is
// read through the fabric the first time the compute path reads it in
// that epoch. Every read is a pure function of (cell, stored code,
// epoch), so the codes observed are exactly those an eager sweep over
// every cell would produce. Cells the anneal never reads — typically
// most of a window — are never hashed. A clean epoch (nLSB <= 0) skips
// the cache and reads the written codes directly.
//
// SwapDelta memoises each slot pair's ΔH, keyed on the packed inputs,
// for as long as the codes it reads stay the same (see WriteBack), and
// with Settles set it flags a window whose every pair is memoised as
// uphill under its current inputs (see Settled).
type Level struct {
	// Windows holds each window's geometry and quantizer, Index = its
	// position unless the level was built for a single window.
	Windows []Window
	// clean holds the written codes, each window's column-major from its
	// cells offset: clean[cells+col*Rows()+row], so the rows of one
	// MAC's column share a cache line or two.
	clean []uint8
	// seen caches the codes the compute path has observed since the last
	// noisy write-back, each tagged with seenTag; 0 marks a cell not read
	// yet. Clean epochs leave it alone.
	seen []uint16
	// memo holds pairs entries per window, window w's slot pair i < j at
	// w*pairs + j(j−1)/2 + i: the swapKey of the inputs it was computed
	// for, shifted up by 16, over ΔH as an int16. 0 marks an empty entry
	// (every key has its valid bit set).
	memo  []uint64
	pairs int
	// settled[w] marks window w settled: every slot pair's memo entry
	// holds one key with ΔH >= 0. It is cleared wherever the memo is,
	// and by Unsettle.
	settled []bool
	// Settles lets SwapDelta set settled flags. Set it only when every
	// swap is accepted iff its ΔH < 0 on the order the memo is keyed on,
	// so a settled window's proposals can only be rejected.
	Settles bool
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

// NewLevel allocates one window per shape, Index = position, with all
// their cells, seen caches and swap memos carved from three level
// slabs: a level costs a few allocations instead of a few per window.
// The level reads back clean until its first noisy WriteBack; Load
// fills each window.
func NewLevel(shapes []Shape) *Level {
	cells, pairs := 0, 0
	for _, s := range shapes {
		cells += s.Rows() * s.Cols()
		pairs = max(pairs, s.pairs())
	}
	l := &Level{
		Windows: make([]Window, len(shapes)),
		clean:   make([]uint8, cells),
		seen:    make([]uint16, cells),
		memo:    make([]uint64, pairs*len(shapes)),
		pairs:   pairs,
		settled: make([]bool, len(shapes)),
	}
	off := 0
	for i, s := range shapes {
		l.Windows[i] = Window{Index: i, Shape: s, cells: off}
		off += s.Rows() * s.Cols()
	}
	return l
}

// Cells returns the level's cell count: the weights one write-back
// rewrites.
func (l *Level) Cells() int { return len(l.clean) }

// maxP is the largest supported cluster size, for the window's own
// cluster and for each neighbour; it sizes Load's code buffer.
const maxP = 8

// Load writes window w's weights from its distance block: Elems()×P
// distances, row-major, from each element to each own element k. The
// first P rows are the intra block (own element m to own k), the next
// PPrev rows run from the previous cluster's elements and the last PNext
// from the next cluster's. Distances are quantized against the window's
// own maximum (per-window scaling, §III.B). Load drops the window's
// memo and observed codes, so it is safe in any epoch, and it touches
// no other window: loads of distinct windows may run concurrently.
func (l *Level) Load(w int, dist []float64) error {
	win := &l.Windows[w]
	p := win.P
	if p < 1 || p > maxP || win.PPrev < 0 || win.PPrev > maxP || win.PNext < 0 || win.PNext > maxP {
		return fmt.Errorf("cim: unsupported window shape %+v", win.Shape)
	}
	if len(dist) != win.Elems()*p {
		return fmt.Errorf("cim: %d distances for a %d×%d block", len(dist), win.Elems(), p)
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
	win.Quant = fixed.NewQuantizer(maxW)
	var codeBuf [3 * maxP * maxP]uint8
	code := codeBuf[:len(dist)]
	for i, v := range dist {
		code[i] = win.Quant.Quantize(v)
	}
	own, rows := p*p, win.Rows()
	clean := l.clean[win.cells : win.cells+rows*own]
	clear(clean)
	clear(l.seen[win.cells : win.cells+rows*own])
	clear(l.memo[w*l.pairs : (w+1)*l.pairs])
	l.settled[w] = false
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
					clean[col*rows+j*p+m] = code[m*p+k]
				}
			}
			// Prev-boundary rows: couple only to order slot 0.
			if i == 0 {
				for m := 0; m < win.PPrev; m++ {
					clean[col*rows+own+m] = code[(p+m)*p+k]
				}
			}
			// Next-boundary rows: couple only to the last order slot.
			if i == p-1 {
				for m := 0; m < win.PNext; m++ {
					clean[col*rows+own+win.PPrev+m] = code[(p+win.PPrev+m)*p+k]
				}
			}
		}
	}
	return nil
}

// MaskWeights truncates every stored code of the level to the given
// number of significant bits by zeroing the lower (8 − bits) LSBs (a
// precision ablation: the paper chooses 8-bit weights "to ensure
// solution quality"). Like Load it drops the memo and observed codes.
func (l *Level) MaskWeights(bits int) {
	if bits >= fixed.Bits || bits < 1 {
		return
	}
	mask := uint8(0xFF) << uint(fixed.Bits-bits)
	for i, c := range l.clean {
		l.clean[i] = c & mask
	}
	clear(l.seen)
	clear(l.memo)
	clear(l.settled)
}

// WriteBack restores the clean weights of every window and starts a
// pseudo-read epoch with nLSB noisy LSBs: from now on every stored bit
// reads through ep (the fabric's pass at the epoch's supply), so the
// device model's error process applies. With nLSB <= 0 the level reads
// back clean and ep may be nil.
//
// The memo survives a clean-to-clean write-back: both epochs read the
// written codes, so every stored ΔH still holds. Any write-back into or
// out of a noisy epoch clears it, and Load and MaskWeights, the only
// other places codes change, clear what they touch. The settled flags
// go with the memo.
func (l *Level) WriteBack(ep noise.Epoch, nLSB int) {
	if nLSB > 0 || l.nLSB > 0 {
		clear(l.memo)
		clear(l.settled)
	}
	if nLSB > 0 {
		clear(l.seen)
	}
	l.epoch, l.nLSB = ep, nLSB
}

// observed returns the code a noisy epoch shows at row row of one
// window column, pseudo-reading the cell on its first use. base is the
// column's offset in the level's cells, win.cells + col*Rows(), and id
// its row-0 cell ID, noise.CellID(win.Index, 0, col, 0). The seen-cache
// hit is small enough to inline into the swap kernel; the first read
// of a cell calls pseudoRead.
func (l *Level) observed(base int, id uint64, row int) uint8 {
	if v := l.seen[base+row]; v != 0 {
		return uint8(v)
	}
	return l.pseudoRead(base, id, row)
}

// pseudoRead reads one cell through the epoch's fabric pass and caches
// the code it shows.
func (l *Level) pseudoRead(base int, id uint64, row int) uint8 {
	code := l.epoch.ReadCode(l.clean[base+row], id|uint64(row)<<noise.CellRowShift, l.nLSB)
	l.seen[base+row] = seenTag | uint16(code)
	return code
}

// Settled reports whether window w is settled: with Settles set,
// SwapDelta marks a window once every slot pair is memoised with
// ΔH >= 0 under one key. Until the window's inputs change, every
// proposal it can make is a memo hit that is rejected, so a caller may
// skip it. Nothing here sees a neighbour's order change: the caller
// must Unsettle both neighbours of a window whose swap it accepts.
func (l *Level) Settled(w int) bool { return l.settled[w] }

// Unsettle clears window w's settled flag.
func (l *Level) Unsettle(w int) { l.settled[w] = false }

// SwapDelta evaluates the paper's four-MAC swap decision for order slots
// i and j of window w, holding elements k and l: ΔH = H(σ'_il) +
// H(σ'_jk) − H(σ_ik) − H(σ_jl), in quantized units. order is the
// window's P-slot order; prevElem is the neighbouring element adjacent
// to slot 0 (the previous cluster's last) and nextElem the one adjacent
// to the last slot (the next cluster's first), −1 when absent.
//
// ΔH is an integer function of the stored codes, the epoch, the inputs
// and the unordered pair {i, j}, so each pair's ΔH is memoised under
// the packed inputs (swapKey), and the memo is probed before any
// per-window field is read: a repeat proposal with unchanged inputs
// reads one memo word. An accepted swap, a neighbour's new boundary
// element or a corrupted spin input changes the key and so misses.
//
// With Settles set, a miss with ΔH >= 0 also scans the window's memo
// and marks the window settled once every pair holds this key uphill.
func (l *Level) SwapDelta(w int, order Order, prevElem, nextElem, i, j int) int {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	key := swapKey(order, prevElem, nextElem)
	e := &l.memo[w*l.pairs+j*(j-1)/2+i]
	if *e>>16 == key {
		return int(int16(uint16(*e)))
	}
	win := &l.Windows[w]
	d := l.swapDelta(win, order, prevElem, nextElem, i, j)
	*e = key<<16 | uint64(uint16(int16(d)))
	if l.Settles && d >= 0 {
		l.settle(w, win.pairs(), key)
	}
	return d
}

// settle marks window w settled if each of its n memo entries holds key
// with ΔH >= 0.
func (l *Level) settle(w, n int, key uint64) {
	for _, e := range l.memo[w*l.pairs : w*l.pairs+n] {
		if e>>16 != key || int16(uint16(e)) < 0 {
			return
		}
	}
	l.settled[w] = true
}

// swapKey packs the inputs a window's ΔH depends on: the order word
// (the low 24 bits at most), then prevElem+1 and nextElem+1 (0 when
// absent) in four bits each, under a valid bit that keeps every key
// distinct from an empty memo entry.
func swapKey(order Order, prevElem, nextElem int) uint64 {
	return uint64(order) | uint64(prevElem+1)<<24 | uint64(nextElem+1)<<28 | 1<<32
}

// swapDelta is SwapDelta's fused kernel: the four column sums of the
// swap over the active rows (one per order slot, plus the boundary rows
// when present), the before pair and then the after pair, whose slot-i
// and slot-j rows exchange elements. The NOR multiplier zeroes every
// inactive row, so summing the active rows' codes is the adder-tree
// result. Each sum is at most 255 × (maxP+2), so ΔH fits the memo's
// int16.
func (l *Level) swapDelta(win *Window, order Order, prevElem, nextElem, i, j int) int {
	p, n := win.P, win.Rows()
	var buf [maxP + 2]int
	rows := buf[:0]
	for s := 0; s < p; s++ {
		rows = append(rows, s*p+order.Elem(p, s))
	}
	if prevElem >= 0 {
		rows = append(rows, p*p+prevElem)
	}
	if nextElem >= 0 {
		rows = append(rows, p*p+win.PPrev+nextElem)
	}
	k, m := order.Elem(p, i), order.Elem(p, j)
	// Row and column of spin (slot, elem) share the slot*p+elem layout.
	ik, jm, im, jk := i*p+k, j*p+m, i*p+m, j*p+k
	before, after := 0, 0
	if l.nLSB <= 0 {
		c := l.clean[win.cells : win.cells+n*p*p]
		for _, r := range rows {
			before += int(c[ik*n+r]) + int(c[jm*n+r])
		}
		rows[i], rows[j] = im, jk
		for _, r := range rows {
			after += int(c[im*n+r]) + int(c[jk*n+r])
		}
		return after - before
	}
	// One checked cell ID per miss: Load bounds the rows and columns
	// (P <= maxP), so every cell's ID is this base offset by its row
	// and column.
	id := noise.CellID(win.Index, 0, 0, 0)
	col := func(c int) (int, uint64) { return win.cells + c*n, id | uint64(c)<<noise.CellColShift }
	ikBase, ikID := col(ik)
	jmBase, jmID := col(jm)
	for _, r := range rows {
		before += int(l.observed(ikBase, ikID, r)) + int(l.observed(jmBase, jmID, r))
	}
	rows[i], rows[j] = im, jk
	imBase, imID := col(im)
	jkBase, jkID := col(jk)
	for _, r := range rows {
		after += int(l.observed(imBase, imID, r)) + int(l.observed(jkBase, jkID, r))
	}
	return after - before
}
