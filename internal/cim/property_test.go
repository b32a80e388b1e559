package cim

import (
	"testing"
	"testing/quick"

	"cimsa/internal/noise"
	"cimsa/internal/rng"
)

// randomWindow builds a window with random distances for property tests.
func randomWindow(r *rng.Rand, p, pPrev, pNext int) (*Window, error) {
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
	return NewWindow(r.Intn(1000), intra, block(pPrev, p, false), block(pNext, p, false))
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
		return w.SwapDelta(in, i, j) == w.SwapDelta(in, j, i)
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
		fwd := w.SwapDelta(in, i, j)
		order[i], order[j] = order[j], order[i]
		rev := w.SwapDelta(in, i, j)
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
