package cim

import (
	"testing"
	"testing/quick"

	"cimsa/internal/noise"
	"cimsa/internal/rng"
)

// randomWindow builds a window with random distances for property tests.
func randomWindow(r *rng.Rand, p, pPrev, pNext int) (testWindow, error) {
	block := func(rows, cols int, zeroDiag bool) [][]float64 {
		out := make([][]float64, rows)
		for i := range out {
			out[i] = make([]float64, cols)
			for j := range out[i] {
				if zeroDiag && i == j {
					continue
				}
				out[i][j] = r.Float64() * 100
			}
		}
		return out
	}
	intra := block(p, p, true)
	// Symmetrize the intra block (distances).
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			intra[j][i] = intra[i][j]
		}
	}
	return newTestWindow(r.Intn(1000), intra, block(pPrev, p, false), block(pNext, p, false))
}

func TestPropertySwapDeltaAntisymmetry(t *testing.T) {
	// ΔH(i,j) must equal ΔH(j,i): the swap is the same move.
	r := rng.New(101)
	f := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		p := rr.Intn(3) + 2
		w, err := randomWindow(rr, p, rr.Intn(3)+1, rr.Intn(3)+1)
		if err != nil {
			return false
		}
		in := Inputs{Order: rr.Perm(p), PrevElem: 0, NextElem: 0}
		i, j := rr.Intn(p), rr.Intn(p)
		if i == j {
			return true
		}
		return w.swap(in, i, j) == w.swap(in, j, i)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestPropertySwapDeltaInvertsUnderNoise(t *testing.T) {
	// With any frozen noise pattern, applying a swap and evaluating the
	// reverse swap must give the exact negative delta (the energy is a
	// state function of the weights, noisy or not).
	f := func(seed uint16, vddSel uint8) bool {
		rr := rng.New(uint64(seed) + 7)
		p := rr.Intn(3) + 2
		w, err := randomWindow(rr, p, 1, 1)
		if err != nil {
			return false
		}
		fab := noise.NewFabric(uint64(seed))
		vdds := []float64{0.8, 0.46, 0.3}
		w.WriteBack(fab.At(vdds[int(vddSel)%3]), 6)
		order := rr.Perm(p)
		in := Inputs{Order: order, PrevElem: 0, NextElem: 0}
		i, j := rr.Intn(p), rr.Intn(p)
		if i == j {
			return true
		}
		fwd := w.swap(in, i, j)
		order[i], order[j] = order[j], order[i]
		rev := w.swap(in, i, j)
		return fwd == -rev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyColumnSumNonNegativeAndBounded(t *testing.T) {
	// Any MAC over 8-bit codes with k active rows is within [0, 255*k].
	f := func(seed uint16) bool {
		rr := rng.New(uint64(seed) + 13)
		p := rr.Intn(3) + 2
		w, err := randomWindow(rr, p, 2, 2)
		if err != nil {
			return false
		}
		fab := noise.NewFabric(uint64(seed) * 3)
		w.WriteBack(fab.At(0.3), 6)
		in := Inputs{Order: rr.Perm(p), PrevElem: rr.Intn(2), NextElem: rr.Intn(2)}
		rows := w.ActiveRows(in, nil)
		for col := 0; col < w.Cols(); col++ {
			s := w.ColumnSum(rows, col)
			if s < 0 || s > 255*len(rows) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// refSwapKey is the memo key packed from an unpacked order: each slot's
// element in three bits, slot 0 highest, then prevElem+1 and nextElem+1
// in four bits each under the valid bit.
func refSwapKey(order []int, prevElem, nextElem int) uint64 {
	k := uint64(0)
	for _, e := range order {
		k = k<<3 | uint64(e)
	}
	return k | uint64(prevElem+1)<<24 | uint64(nextElem+1)<<28 | 1<<32
}

// TestOrderWordMatchesSlices checks every packed-order helper against
// its []int reference over p = 1..8: first, last, per-slot element,
// swap, unpack and the memo key. Orders include non-permutations (the
// noisy-spins ablation's corrupted inputs) as well as permutations.
func TestOrderWordMatchesSlices(t *testing.T) {
	r := rng.New(41)
	for p := 1; p <= maxP; p++ {
		ident := make([]int, p)
		for s := range ident {
			ident[s] = s
		}
		if IdentityOrder(p) != PackOrder(ident) {
			t.Fatalf("p=%d: IdentityOrder %#x, packed identity %#x", p, IdentityOrder(p), PackOrder(ident))
		}
		for trial := 0; trial < 500; trial++ {
			order := r.Perm(p)
			if trial%3 == 0 {
				for s := range order {
					order[s] = r.Intn(p)
				}
			}
			o := PackOrder(order)
			if o>>(3*p) != 0 {
				t.Fatalf("p=%d order %v: packed %#x spills beyond %d slots", p, order, o, p)
			}
			if o.First(p) != order[0] || o.Last() != order[p-1] {
				t.Fatalf("p=%d order %v: first %d last %d", p, order, o.First(p), o.Last())
			}
			got := o.Unpack(p, nil)
			for s := range order {
				if o.Elem(p, s) != order[s] || got[s] != order[s] {
					t.Fatalf("p=%d order %v: slot %d reads %d, unpacks %v", p, order, s, o.Elem(p, s), got)
				}
			}
			prev, next := r.Intn(maxP+1)-1, r.Intn(maxP+1)-1
			if swapKey(o, prev, next) != refSwapKey(order, prev, next) {
				t.Fatalf("p=%d order %v prev %d next %d: key %#x, reference %#x",
					p, order, prev, next, swapKey(o, prev, next), refSwapKey(order, prev, next))
			}
			i, j := r.Intn(p), r.Intn(p)
			swapped := append([]int(nil), order...)
			swapped[i], swapped[j] = swapped[j], swapped[i]
			if o.Swap(p, i, j) != PackOrder(swapped) {
				t.Fatalf("p=%d order %v: Swap(%d,%d) = %v, want %v", p, order, i, j, o.Swap(p, i, j).Unpack(p, nil), swapped)
			}
		}
	}
}
