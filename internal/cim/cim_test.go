package cim

import (
	"testing"
	"testing/quick"

	"cimsa/internal/noise"
	"cimsa/internal/rng"
)

func TestNorMultiplyTruthTable(t *testing.T) {
	cases := []struct{ in, w, want uint8 }{
		{0, 0, 0}, {0, 1, 0}, {1, 0, 0}, {1, 1, 1},
	}
	for _, c := range cases {
		if got := NorMultiply(c.in, c.w); got != c.want {
			t.Errorf("NorMultiply(%d,%d) = %d, want %d", c.in, c.w, got, c.want)
		}
	}
}

func TestAdderTreeAdderCount(t *testing.T) {
	if (AdderTree{Inputs: 1}).AdderCount(8) != 0 {
		t.Fatal("single input needs no adders")
	}
	// 2 inputs of 8 bits: one 8-bit adder = 8 FAs.
	if got := (AdderTree{Inputs: 2}).AdderCount(8); got != 8 {
		t.Fatalf("2-input count = %d, want 8", got)
	}
	// Counts must grow with inputs.
	prev := 0
	for n := 2; n <= 24; n++ {
		got := (AdderTree{Inputs: n}).AdderCount(8)
		if got <= prev {
			t.Fatalf("adder count not increasing at %d inputs", n)
		}
		prev = got
	}
}

func TestSumColumnMatchesDotProduct(t *testing.T) {
	r := rng.New(1)
	f := func(nRaw uint8) bool {
		n := int(nRaw%24) + 1
		tree := AdderTree{Inputs: n}
		inputs := make([]uint8, n)
		weights := make([]uint8, n)
		want := 0
		for i := range inputs {
			inputs[i] = uint8(r.Intn(2))
			weights[i] = uint8(r.Intn(256))
			want += int(inputs[i]) * int(weights[i])
		}
		return tree.SumColumn(inputs, weights) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSumColumnPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths accepted")
		}
	}()
	(AdderTree{Inputs: 2}).SumColumn([]uint8{1, 0}, []uint8{1})
}

// makeTestWindow builds a 3-element window with distinct distances.
func makeTestWindow(t *testing.T) testWindow {
	t.Helper()
	intra := [][]float64{
		{0, 10, 20},
		{10, 0, 30},
		{20, 30, 0},
	}
	fromPrev := [][]float64{{5, 15, 25}, {7, 17, 27}}
	toNext := [][]float64{{6, 16, 26}, {8, 18, 28}, {9, 19, 29}}
	w, err := newTestWindow(3, intra, fromPrev, toNext)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWindowShape(t *testing.T) {
	w := makeTestWindow(t)
	if w.Rows() != 9+2+3 {
		t.Fatalf("rows = %d", w.Rows())
	}
	if w.Cols() != 9 {
		t.Fatalf("cols = %d", w.Cols())
	}
	if ProvisionedRows(3) != 15 || ProvisionedCols(3) != 9 {
		t.Fatal("provisioned window shape wrong for pMax=3")
	}
	if ProvisionedRows(2) != 8 || ProvisionedCols(2) != 4 {
		t.Fatal("provisioned window shape wrong for pMax=2 (Table II says 8x4)")
	}
	if ProvisionedRows(4) != 24 || ProvisionedCols(4) != 16 {
		t.Fatal("provisioned window shape wrong for pMax=4 (Table II says 24x16)")
	}
}

func TestWindowStructuralZeros(t *testing.T) {
	w := makeTestWindow(t)
	p := w.P
	for i := 0; i < p; i++ {
		for k := 0; k < p; k++ {
			col := i*p + k
			for j := 0; j < p; j++ {
				for m := 0; m < p; m++ {
					row := j*p + m
					adjacent := j == i-1 || j == i+1
					code := w.CleanWeight(row, col)
					if !adjacent && code != 0 {
						t.Fatalf("non-adjacent coupling (%d,%d)x(%d,%d) = %d", j, m, i, k, code)
					}
				}
			}
			// Boundary rows couple only to the edge slots.
			for m := 0; m < w.PPrev; m++ {
				code := w.CleanWeight(p*p+m, col)
				if i != 0 && code != 0 {
					t.Fatalf("prev boundary couples to slot %d", i)
				}
			}
			for m := 0; m < w.PNext; m++ {
				code := w.CleanWeight(p*p+w.PPrev+m, col)
				if i != p-1 && code != 0 {
					t.Fatalf("next boundary couples to slot %d", i)
				}
			}
		}
	}
}

func TestWindowLocalEnergyMatchesFloatModel(t *testing.T) {
	w := makeTestWindow(t)
	intra := [][]float64{
		{0, 10, 20},
		{10, 0, 30},
		{20, 30, 0},
	}
	fromPrev := [][]float64{{5, 15, 25}, {7, 17, 27}}
	toNext := [][]float64{{6, 16, 26}, {8, 18, 28}, {9, 19, 29}}
	in := Inputs{Order: []int{2, 0, 1}, PrevElem: 1, NextElem: 0}
	var scratch []uint8
	for i := 0; i < 3; i++ {
		k := in.Order[i]
		e := w.LocalEnergy(in, i, k, scratch)
		// Expected: distances to the neighbours of slot i.
		want := 0.0
		if i == 0 {
			want += fromPrev[in.PrevElem][k]
		} else {
			want += intra[in.Order[i-1]][k]
		}
		if i == 2 {
			want += toNext[in.NextElem][k]
		} else {
			want += intra[in.Order[i+1]][k]
		}
		gotDist := float64(e) * w.Quant.Scale
		// Two quantized terms: error bounded by one LSB total.
		if diff := gotDist - want; diff > 2*w.Quant.Scale || diff < -2*w.Quant.Scale {
			t.Fatalf("slot %d: CIM energy %v, float model %v", i, gotDist, want)
		}
	}
}

func TestWindowSwapDeltaMatchesManualMACs(t *testing.T) {
	w := makeTestWindow(t)
	in := Inputs{Order: []int{0, 1, 2}, PrevElem: 0, NextElem: 2}
	var scratch []uint8
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			k, l := in.Order[i], in.Order[j]
			before := w.LocalEnergy(in, i, k, scratch) + w.LocalEnergy(in, j, l, scratch)
			swapped := Inputs{Order: append([]int(nil), in.Order...), PrevElem: 0, NextElem: 2}
			swapped.Order[i], swapped.Order[j] = l, k
			after := w.LocalEnergy(swapped, i, l, scratch) + w.LocalEnergy(swapped, j, k, scratch)
			if got := w.swap(in, i, j); got != after-before {
				t.Fatalf("swap (%d,%d): SwapDelta %d, manual %d", i, j, got, after-before)
			}
			// SwapDelta must not mutate the order.
			if in.Order[0] != 0 || in.Order[1] != 1 || in.Order[2] != 2 {
				t.Fatal("SwapDelta mutated the order")
			}
		}
	}
}

func TestWriteBackCleanAtNominal(t *testing.T) {
	w := makeTestWindow(t)
	f := noise.NewFabric(1)
	w.WriteBack(f.At(0.2), 6) // corrupt
	w.WriteBack(f.At(0.8), 0) // restore at nominal
	for row := 0; row < w.Rows(); row++ {
		for col := 0; col < w.Cols(); col++ {
			if w.Weight(row, col) != w.CleanWeight(row, col) {
				t.Fatalf("cell (%d,%d) still corrupted after clean write-back", row, col)
			}
		}
	}
}

func TestWriteBackInjectsNoiseAtLowVDD(t *testing.T) {
	w := makeTestWindow(t)
	f := noise.NewFabric(2)
	w.WriteBack(f.At(0.2), 6)
	changed := 0
	for row := 0; row < w.Rows(); row++ {
		for col := 0; col < w.Cols(); col++ {
			if w.Weight(row, col) != w.CleanWeight(row, col) {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Fatal("no weights corrupted at 200 mV with 6 noisy LSBs")
	}
	// MSBs (bits 6,7) must be untouched: difference below 2^6.
	for row := 0; row < w.Rows(); row++ {
		for col := 0; col < w.Cols(); col++ {
			clean, noisy := w.CleanWeight(row, col), w.Weight(row, col)
			if clean>>6 != noisy>>6 {
				t.Fatalf("MSBs corrupted at (%d,%d): %08b -> %08b", row, col, clean, noisy)
			}
		}
	}
}

func TestWriteBackDeterministicPattern(t *testing.T) {
	// Same fabric, same window, same epoch settings: identical pattern
	// (the spatial-noise property).
	w1 := makeTestWindow(t)
	w2 := makeTestWindow(t)
	f := noise.NewFabric(3)
	w1.WriteBack(f.At(0.3), 5)
	w2.WriteBack(f.At(0.3), 5)
	for row := 0; row < w1.Rows(); row++ {
		for col := 0; col < w1.Cols(); col++ {
			if w1.Weight(row, col) != w2.Weight(row, col) {
				t.Fatal("same chip produced different error patterns")
			}
		}
	}
}

func TestNoiseDiffersAcrossWindows(t *testing.T) {
	// Windows at different chip locations see different cells.
	intra := [][]float64{{0, 100}, {100, 0}}
	wa, err := newTestWindow(0, intra, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := newTestWindow(1, intra, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := noise.NewFabric(4)
	wa.WriteBack(f.At(0.2), 6)
	wb.WriteBack(f.At(0.2), 6)
	same := true
	for row := 0; row < wa.Rows(); row++ {
		for col := 0; col < wa.Cols(); col++ {
			if wa.Weight(row, col) != wb.Weight(row, col) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different windows saw identical noise")
	}
}

func TestNewWindowErrors(t *testing.T) {
	if _, err := newTestWindow(0, nil, nil, nil); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, err := newTestWindow(0, [][]float64{{0, 1}}, nil, nil); err == nil {
		t.Fatal("non-square intra accepted")
	}
	if _, err := newTestWindow(0, [][]float64{{0, -1}, {-1, 0}}, nil, nil); err == nil {
		t.Fatal("negative distance accepted")
	}
	if _, err := newTestWindow(0, [][]float64{{0, 1}, {1, 0}}, [][]float64{{1, 2, 3}}, nil); err == nil {
		t.Fatal("bad boundary width accepted")
	}
	// P = 10 with 5-element neighbours: 200 distances, more than Load's
	// buffer for the supported P <= 8 holds.
	block := func(rows, cols int) [][]float64 {
		b := make([][]float64, rows)
		for i := range b {
			b[i] = make([]float64, cols)
		}
		return b
	}
	if _, err := newTestWindow(0, block(10, 10), block(5, 10), block(5, 10)); err == nil {
		t.Fatal("oversized cluster accepted")
	}
	if _, err := newTestWindow(0, block(2, 2), block(9, 2), nil); err == nil {
		t.Fatal("oversized neighbour accepted")
	}
}

func TestSingletonWindow(t *testing.T) {
	// A one-element cluster has one column and only boundary couplings.
	w, err := newTestWindow(0, [][]float64{{0}}, [][]float64{{12}}, [][]float64{{7}})
	if err != nil {
		t.Fatal(err)
	}
	if w.Rows() != 3 || w.Cols() != 1 {
		t.Fatalf("singleton window shape %dx%d", w.Rows(), w.Cols())
	}
	in := Inputs{Order: []int{0}, PrevElem: 0, NextElem: 0}
	e := w.LocalEnergy(in, 0, 0, nil)
	want := 12.0 + 7.0
	got := float64(e) * w.Quant.Scale
	if got < want-2*w.Quant.Scale || got > want+2*w.Quant.Scale {
		t.Fatalf("singleton energy %v, want ~%v", got, want)
	}
}

func TestArrayMapping(t *testing.T) {
	if ArrayOf(0) != 0 || ArrayOf(9) != 0 || ArrayOf(10) != 1 {
		t.Fatal("cluster-to-array mapping wrong")
	}
	if ArrayCount(10) != 1 || ArrayCount(11) != 2 || ArrayCount(0) != 0 {
		t.Fatal("array count wrong")
	}
	// pla85900 with pMax=3: 42950 windows -> 4295 arrays.
	if got := ArrayCount(42950); got != 4295 {
		t.Fatalf("pla85900 arrays = %d, want 4295", got)
	}
}

func TestGeometryMatchesTable2(t *testing.T) {
	cases := []struct {
		pMax, rows, cols int
	}{
		{2, 40, 64},
		{3, 75, 144},
		{4, 120, 256},
	}
	for _, c := range cases {
		g, err := GeometryFor(c.pMax)
		if err != nil {
			t.Fatal(err)
		}
		if g.CellRows != c.rows || g.CellCols != c.cols {
			t.Fatalf("pMax=%d: array %dx%d, Table II says %dx%d",
				c.pMax, g.CellRows, g.CellCols, c.rows, c.cols)
		}
	}
	if _, err := GeometryFor(1); err == nil {
		t.Fatal("pMax=1 accepted")
	}
}

func TestCycleConstants(t *testing.T) {
	if CyclesPerSwap != 5 {
		t.Fatalf("cycles per swap = %d (4 MACs + 1 compare expected)", CyclesPerSwap)
	}
	if CyclesPerIteration != 10 {
		t.Fatalf("cycles per iteration = %d", CyclesPerIteration)
	}
	if BoundaryTransferBits(3) != 3 {
		t.Fatal("boundary transfer width wrong")
	}
}

func BenchmarkLocalEnergyP3(b *testing.B) {
	intra := [][]float64{
		{0, 10, 20},
		{10, 0, 30},
		{20, 30, 0},
	}
	fromPrev := [][]float64{{5, 15, 25}, {7, 17, 27}, {1, 2, 3}}
	toNext := [][]float64{{6, 16, 26}, {8, 18, 28}, {9, 19, 29}}
	w, err := newTestWindow(0, intra, fromPrev, toNext)
	if err != nil {
		b.Fatal(err)
	}
	in := Inputs{Order: []int{2, 0, 1}, PrevElem: 1, NextElem: 0}
	scratch := make([]uint8, w.Rows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.LocalEnergy(in, 1, 0, scratch)
	}
}

func TestColumnSumEquivalentToLocalEnergy(t *testing.T) {
	// The per-column shortcut (ColumnSum over active rows) must be
	// bit-exact with the full bit-plane adder-tree MAC (LocalEnergy),
	// including under injected noise.
	r := rng.New(77)
	intra := [][]float64{
		{0, 11, 22},
		{11, 0, 33},
		{22, 33, 0},
	}
	fromPrev := [][]float64{{4, 14, 24}, {5, 15, 25}}
	toNext := [][]float64{{6, 16, 26}, {7, 17, 27}, {8, 18, 28}}
	w, err := newTestWindow(9, intra, fromPrev, toNext)
	if err != nil {
		t.Fatal(err)
	}
	f := noise.NewFabric(42)
	scratch := make([]uint8, w.Rows())
	rowsBuf := make([]int, 0, 8)
	for _, vdd := range []float64{0.8, 0.45, 0.3} {
		w.WriteBack(f.At(vdd), 6)
		for trial := 0; trial < 50; trial++ {
			order := r.Perm(3)
			in := Inputs{Order: order, PrevElem: r.Intn(2), NextElem: r.Intn(3)}
			rows := w.ActiveRows(in, rowsBuf)
			for i := 0; i < 3; i++ {
				col := i*3 + order[i]
				fast := w.ColumnSum(rows, col)
				slow := w.LocalEnergy(in, i, order[i], scratch)
				if fast != slow {
					t.Fatalf("vdd=%v trial=%d slot=%d: fast %d != slow %d", vdd, trial, i, fast, slow)
				}
			}
		}
	}
}

func TestActiveRowsLayout(t *testing.T) {
	intra := [][]float64{{0, 1}, {1, 0}}
	w, err := newTestWindow(0, intra, [][]float64{{2, 3}}, [][]float64{{4, 5}, {6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{Order: []int{1, 0}, PrevElem: 0, NextElem: 1}
	rows := w.ActiveRows(in, make([]int, 0, 4))
	want := []int{0*2 + 1, 1*2 + 0, 4 + 0, 4 + 1 + 1}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("rows = %v, want %v", rows, want)
		}
	}
	// Boundaries absent: only the slot rows.
	noB := Inputs{Order: []int{0, 1}, PrevElem: -1, NextElem: -1}
	rows = w.ActiveRows(noB, rows[:0])
	if len(rows) != 2 {
		t.Fatalf("rows without boundaries = %v", rows)
	}
}

func TestMaskWeights(t *testing.T) {
	w := makeTestWindow(t)
	orig := make([]uint8, 0)
	for row := 0; row < w.Rows(); row++ {
		for col := 0; col < w.Cols(); col++ {
			orig = append(orig, w.CleanWeight(row, col))
		}
	}
	w.MaskWeights(4)
	idx := 0
	for row := 0; row < w.Rows(); row++ {
		for col := 0; col < w.Cols(); col++ {
			got := w.CleanWeight(row, col)
			if got != orig[idx]&0xF0 {
				t.Fatalf("cell (%d,%d): %08b, want %08b", row, col, got, orig[idx]&0xF0)
			}
			if w.Weight(row, col) != got {
				t.Fatal("visible weights not refreshed after masking")
			}
			idx++
		}
	}
	// Full precision and out-of-range are no-ops.
	w2 := makeTestWindow(t)
	w2.MaskWeights(8)
	w2.MaskWeights(0)
	for row := 0; row < w2.Rows(); row++ {
		for col := 0; col < w2.Cols(); col++ {
			if w2.CleanWeight(row, col) != makeTestWindow(t).CleanWeight(row, col) {
				t.Fatal("no-op mask changed weights")
			}
		}
	}
}

// countingEpoch counts the pseudo-reads that reach the fabric.
type countingEpoch struct {
	noise.Epoch
	reads int
}

func (e *countingEpoch) ReadCode(code uint8, baseCellID uint64, nLSB int) uint8 {
	e.reads++
	return e.Epoch.ReadCode(code, baseCellID, nLSB)
}

// TestLazyPseudoReadsMatchEagerSweep checks the lazy write-back against
// its definition for every fabric: whatever order the compute path
// reads cells in, each observed code equals an eager pseudo-read of the
// stored code at that cell's ID, and a new write-back replaces every
// cached observation.
func TestLazyPseudoReadsMatchEagerSweep(t *testing.T) {
	r := rng.New(5)
	for _, kind := range noise.Kinds() {
		fab, err := noise.New(kind, 17)
		if err != nil {
			t.Fatal(err)
		}
		w, err := randomWindow(r, 3, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, vdd := range []float64{0.3, 0.42, 0.3, 0.58} {
			for _, nLSB := range []int{6, 3, 0} {
				ep := fab.At(vdd)
				w.WriteBack(ep, nLSB)
				// Read half the cells through the MAC path, column by
				// column over random row subsets, then every cell.
				for col := 0; col < w.Cols(); col++ {
					var rows []int
					for row := 0; row < w.Rows(); row++ {
						if r.Intn(2) == 0 {
							rows = append(rows, row)
						}
					}
					w.ColumnSum(rows, col)
				}
				for row := 0; row < w.Rows(); row++ {
					for col := 0; col < w.Cols(); col++ {
						want := w.CleanWeight(row, col)
						if nLSB > 0 {
							want = ep.ReadCode(want, noise.CellID(w.Index, row, col, 0), nLSB)
						}
						if got := w.Weight(row, col); got != want {
							t.Fatalf("%s vdd=%v nLSB=%d cell (%d,%d): observed %#02x, eager read %#02x",
								kind, vdd, nLSB, row, col, got, want)
						}
					}
				}
			}
		}
	}
}

// TestUnreadCellsNeverPseudoRead pins the saving the lazy write-back
// exists for: only cells the compute path reads reach the fabric, once
// per epoch each.
func TestUnreadCellsNeverPseudoRead(t *testing.T) {
	w := makeTestWindow(t)
	ep := &countingEpoch{Epoch: noise.NewFabric(9).At(0.3)}
	w.WriteBack(ep, 6)
	if ep.reads != 0 {
		t.Fatalf("write-back pseudo-read %d cells up front", ep.reads)
	}
	rows := []int{0, 4, 8, 9, 12}
	first := w.ColumnSum(rows, 2)
	if ep.reads != len(rows) {
		t.Fatalf("one MAC over %d rows pseudo-read %d cells", len(rows), ep.reads)
	}
	if again := w.ColumnSum(rows, 2); again != first || ep.reads != len(rows) {
		t.Fatalf("repeated MAC: sum %d vs %d, %d reads (want %d)", again, first, ep.reads, len(rows))
	}
	w.WriteBack(ep, 6)
	w.ColumnSum(rows, 2)
	if ep.reads != 2*len(rows) {
		t.Fatalf("new epoch re-read %d cells, want %d", ep.reads-len(rows), len(rows))
	}
}

// TestNewLevelCarvesDisjointCells checks that windows sharing the
// level's slabs never see each other's cells or memo entries.
func TestNewLevelCarvesDisjointCells(t *testing.T) {
	shapes := []Shape{{P: 3, PPrev: 2, PNext: 1}, {P: 1, PPrev: 3, PNext: 2}, {P: 2, PPrev: 1, PNext: 3}}
	l := NewLevel(shapes)
	for i := range l.Windows {
		w := &l.Windows[i]
		if w.Index != i || w.Shape != shapes[i] {
			t.Fatalf("window %d: index %d shape %+v", i, w.Index, w.Shape)
		}
		dist := make([]float64, w.Elems()*w.P)
		for k := range dist {
			dist[k] = float64(10*i + k%7 + 1)
		}
		if err := l.Load(i, dist); err != nil {
			t.Fatal(err)
		}
	}
	want := make([][]uint8, len(l.Windows))
	for i := range l.Windows {
		w := windowOf(l, i)
		for row := 0; row < w.Rows(); row++ {
			for col := 0; col < w.Cols(); col++ {
				want[i] = append(want[i], w.CleanWeight(row, col))
			}
		}
	}
	// Fill window 0's and 2's memos, then reload window 1: its
	// neighbours' cells and memo entries must stay.
	in0 := Inputs{Order: []int{2, 0, 1}, PrevElem: 1, NextElem: 0}
	in2 := Inputs{Order: []int{1, 0}, PrevElem: 0, NextElem: 2}
	d0, d2 := windowOf(l, 0).swap(in0, 0, 2), windowOf(l, 2).swap(in2, 0, 1)
	memo := append([]uint64(nil), l.memo...)
	if err := l.Load(1, make([]float64, l.Windows[1].Elems()*l.Windows[1].P)); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		w := windowOf(l, i)
		k := 0
		for row := 0; row < w.Rows(); row++ {
			for col := 0; col < w.Cols(); col++ {
				if got := w.CleanWeight(row, col); got != want[i][k] {
					t.Fatalf("window %d cell (%d,%d) changed to %d when window 1 reloaded", i, row, col, got)
				}
				k++
			}
		}
	}
	for k := range memo {
		if l.memo[k] != memo[k] {
			t.Fatalf("memo entry %d changed from %#x to %#x when window 1 reloaded", k, memo[k], l.memo[k])
		}
	}
	if windowOf(l, 0).swap(in0, 0, 2) != d0 || windowOf(l, 2).swap(in2, 0, 1) != d2 {
		t.Fatal("neighbour ΔH changed when window 1 reloaded")
	}
}
