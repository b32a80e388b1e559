package cim

import (
	"fmt"
	"testing"

	"cimsa/internal/noise"
	"cimsa/internal/rng"
)

// memoEvent is one step of TestSwapDeltaMemoMatchesReference's input
// sequence. Each one that changes what a window's ΔH depends on names
// the invalidation rule that must make the next evaluation miss.
type memoEvent struct {
	name string
	rule string
}

var (
	evRepeat    = memoEvent{"repeat", "an unchanged (inputs, pair) must hit the memo"}
	evPair      = memoEvent{"new pair", "the memo holds one entry per unordered slot pair"}
	evSwap      = memoEvent{"accepted swap", "an accepted swap must change the memo key"}
	evPrev      = memoEvent{"prev boundary change", "the previous cluster's boundary element must change the memo key"}
	evNext      = memoEvent{"next boundary change", "the next cluster's boundary element must change the memo key"}
	evCorrupt   = memoEvent{"corrupted input", "a corrupted spin input must change the memo key"}
	evRestore   = memoEvent{"restored input", "the uncorrupted order must change the memo key back"}
	evWriteBack = memoEvent{"write-back", "WriteBack must clear the memo"}
)

// TestSwapDeltaMemoMatchesReference drives long input sequences through
// the memoised SwapDelta — repeats, new pairs, accepted swaps, boundary
// element changes, corrupted spin inputs and write-backs into noisy
// (sram, mram) and clean epochs — and checks every ΔH bit for bit
// against the four-LocalEnergy reference. In noisy epochs it also tells
// hits from misses by their pseudo-reads: before each evaluation the
// window's cell cache is dropped (reads are pure functions of cell,
// code and epoch, so this changes no value), so a recomputation must
// reach the fabric and a memo hit must not. A failure names the event
// before it and the invalidation rule that broke.
func TestSwapDeltaMemoMatchesReference(t *testing.T) {
	shapes := []Shape{{3, 3, 3}, {2, 1, 2}, {8, 8, 8}, {5, 2, 7}, {4, 0, 0}}
	for _, kind := range []string{noise.KindSRAM, noise.KindMRAM} {
		fab, err := noise.New(kind, 23)
		if err != nil {
			t.Fatal(err)
		}
		for si, s := range shapes {
			t.Run(fmt.Sprintf("%s/p%d-%d-%d", kind, s.P, s.PPrev, s.PNext), func(t *testing.T) {
				driveMemo(t, fab, s, rng.New(uint64(100+si)), 3000)
			})
		}
	}
}

func driveMemo(t *testing.T, fab noise.Fabric, s Shape, r *rng.Rand, steps int) {
	w, err := randomWindow(r, s.P, s.PPrev, s.PNext)
	if err != nil {
		t.Fatal(err)
	}
	// boundary draws a neighbour's facing element, or -1 when the
	// window has no such neighbour.
	boundary := func(n int) int {
		if n == 0 {
			return -1
		}
		return r.Intn(n)
	}
	order := r.Perm(s.P)
	in := Inputs{Order: append([]int(nil), order...), PrevElem: boundary(s.PPrev), NextElem: boundary(s.PNext)}
	corrupted := false
	pair := func() (int, int) {
		i := r.Intn(s.P)
		j := (i + 1 + r.Intn(s.P-1)) % s.P
		return i, j
	}
	i, j := pair()
	ep := &countingEpoch{}
	nLSBs := []int{6, 3, 0}
	vdds := []float64{0.3, 0.38, 0.46, 0.54}
	writeBack := func(k int) {
		ep.Epoch = fab.At(vdds[k%len(vdds)])
		w.WriteBack(ep, nLSBs[k%len(nLSBs)])
	}
	writeBack(0)
	// last maps each unordered pair to the inputs of its latest
	// evaluation since the last write-back: the memo's one entry.
	last := map[[2]int]string{}
	scratch := make([]uint8, w.Rows())
	ev, epochs := memoEvent{"start", "the first evaluation must miss"}, 0
	for step := 0; step < steps; step++ {
		lo, hi := min(i, j), max(i, j)
		inKey := fmt.Sprint(in)
		repeat := last[[2]int{lo, hi}] == inKey
		clear(w.seen)
		reads := ep.reads
		got := w.SwapDelta(in, i, j)
		reads = ep.reads - reads
		want := w.refSwapDelta(in, i, j, scratch)
		if got != want {
			t.Fatalf("step %d after %s (inputs %v, pair %d,%d, nLSB %d): SwapDelta %d, reference %d — %s",
				step, ev.name, in, i, j, w.nLSB, got, want, ev.rule)
		}
		if w.nLSB > 0 && repeat && reads != 0 {
			t.Fatalf("step %d after %s: a memo hit pseudo-read %d cells — %s", step, ev.name, reads, evRepeat.rule)
		}
		if w.nLSB > 0 && !repeat && reads == 0 {
			t.Fatalf("step %d after %s (inputs %v, pair %d,%d): SwapDelta reused a stale memo entry — %s",
				step, ev.name, in, i, j, ev.rule)
		}
		last[[2]int{lo, hi}] = inKey

		// Pick the next event. Repeats dominate, as in the annealer,
		// where few proposals are accepted.
		switch x := r.Intn(20); {
		case x < 8:
			ev = evRepeat
			if r.Intn(2) == 0 {
				i, j = j, i // the same unordered pair
			}
		case x < 11:
			ev = evPair
			i, j = pair()
		case x < 13:
			ev = evSwap
			a, b := pair()
			order[a], order[b] = order[b], order[a]
			if !corrupted {
				copy(in.Order, order)
			}
		case x < 14 && s.PPrev > 0:
			ev = evPrev
			in.PrevElem = (in.PrevElem + 1 + r.Intn(s.PPrev)) % (s.PPrev + 1)
			if in.PrevElem == s.PPrev {
				in.PrevElem = -1
			}
		case x < 15 && s.PNext > 0:
			ev = evNext
			in.NextElem = (in.NextElem + 1 + r.Intn(s.PNext)) % (s.PNext + 1)
			if in.NextElem == s.PNext {
				in.NextElem = -1
			}
		case x < 16:
			// The noisy-spins ablation reads some slots as a fixed wrong
			// element, so the inputs need not be a permutation.
			ev = evCorrupt
			if corrupted {
				ev = evRestore
				copy(in.Order, order)
			} else {
				for slot := range in.Order {
					if r.Intn(2) == 0 {
						in.Order[slot] = r.Intn(s.P)
					}
				}
			}
			corrupted = !corrupted
		case x < 17:
			ev = evWriteBack
			epochs++
			writeBack(epochs)
			clear(last)
		default:
			ev = evRepeat
		}
	}
}

// BenchmarkSwapDelta times one swap evaluation of a p=3 window in a
// noisy epoch. "hit" repeats the same inputs, so the memo answers;
// "miss" alternates two orders for the same pair, so every call runs
// the fused four-MAC kernel (over cells already pseudo-read).
func BenchmarkSwapDelta(b *testing.B) {
	w, err := randomWindow(rng.New(3), 3, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	w.WriteBack(noise.NewFabric(5).At(0.3), 6)
	a := Inputs{Order: []int{0, 1, 2}, PrevElem: 1, NextElem: 2}
	c := Inputs{Order: []int{2, 1, 0}, PrevElem: 1, NextElem: 2}
	b.Run("hit", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			w.SwapDelta(a, 0, 2)
		}
	})
	b.Run("miss", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if n&1 == 0 {
				w.SwapDelta(a, 0, 2)
			} else {
				w.SwapDelta(c, 0, 2)
			}
		}
	})
}
