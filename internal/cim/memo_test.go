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
	evWriteBack = memoEvent{"write-back", "a write-back into or out of a noisy epoch must clear the memo"}
	evCleanWB   = memoEvent{"clean write-back", "a clean-to-clean write-back must keep every memo entry, each still equal to the reference"}
)

// TestSwapDeltaMemoMatchesReference drives long input sequences through
// the memoised SwapDelta of one window in the middle of a level —
// repeats, new pairs, accepted swaps, boundary element changes,
// corrupted spin inputs and write-backs into noisy (sram, mram) and
// clean epochs — and checks every ΔH bit for bit against the
// four-LocalEnergy reference. In noisy epochs it also tells hits from
// misses by their pseudo-reads: before each evaluation the level's cell
// cache is dropped (reads are pure functions of cell, code and epoch,
// so this changes no value), so a recomputation must reach the fabric
// and a memo hit must not. At each write-back it checks the level-owned
// memo: cleared when either epoch is noisy, kept entry for entry — and
// each entry still the reference ΔH of its key — when both are clean.
// The neighbouring windows' memo entries must never be touched. A
// failure names the event before it and the rule that broke.
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
	// The driven window sits between two others, the first of the
	// largest size, so its memo lives at the slab's widest stride.
	shapes := []Shape{{8, 3, 2}, s, {2, 1, 4}}
	l := NewLevel(shapes)
	for wi, sh := range shapes {
		dist := make([]float64, sh.Elems()*sh.P)
		for k := range dist {
			dist[k] = r.Float64() * 100
		}
		if err := l.Load(wi, dist); err != nil {
			t.Fatal(err)
		}
	}
	w := windowOf(l, 1)
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
	nLSBs := []int{6, 3, 0, 0, 0}
	vdds := []float64{0.3, 0.38, 0.46, 0.54}
	writeBack := func(k int) {
		ep.Epoch = fab.At(vdds[k%len(vdds)])
		l.WriteBack(ep, nLSBs[k%len(nLSBs)])
	}
	writeBack(0)
	// last maps each unordered pair to the inputs of its latest
	// evaluation since the memo was last cleared: the memo's one entry.
	last := map[[2]int]string{}
	scratch := make([]uint8, w.Rows())
	memo := l.memo[l.pairs : 2*l.pairs]
	ev, epochs := memoEvent{"start", "the first evaluation must miss"}, 0
	for step := 0; step < steps; step++ {
		lo, hi := min(i, j), max(i, j)
		inKey := fmt.Sprint(in)
		repeat := last[[2]int{lo, hi}] == inKey
		clear(l.seen)
		reads := ep.reads
		got := w.swap(in, i, j)
		reads = ep.reads - reads
		want := w.refSwapDelta(in, i, j, scratch)
		if got != want {
			t.Fatalf("step %d after %s (inputs %v, pair %d,%d, nLSB %d): SwapDelta %d, reference %d — %s",
				step, ev.name, in, i, j, l.nLSB, got, want, ev.rule)
		}
		if l.nLSB > 0 && repeat && reads != 0 {
			t.Fatalf("step %d after %s: a memo hit pseudo-read %d cells — %s", step, ev.name, reads, evRepeat.rule)
		}
		if l.nLSB > 0 && !repeat && reads == 0 {
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
			before := append([]uint64(nil), memo...)
			wasNoisy := l.nLSB > 0
			epochs++
			writeBack(epochs)
			if wasNoisy || l.nLSB > 0 {
				ev = evWriteBack
				for k, e := range memo {
					if e != 0 {
						t.Fatalf("step %d: memo entry %d survived a write-back from nLSB>0=%v to nLSB %d — %s",
							step, k, wasNoisy, l.nLSB, ev.rule)
					}
				}
				clear(last)
				break
			}
			ev = evCleanWB
			checkKeptMemo(t, w, before, memo, scratch)
		default:
			ev = evRepeat
		}
	}
	for _, wi := range []int{0, 2} {
		for k, e := range l.memo[wi*l.pairs : (wi+1)*l.pairs] {
			if e != 0 {
				t.Fatalf("window %d memo entry %d = %#x, written while driving window 1", wi, k, e)
			}
		}
	}
}

// checkKeptMemo asserts a clean-to-clean write-back kept every entry of
// the window's memo, and that each one still holds the reference ΔH of
// the inputs its key packs.
func checkKeptMemo(t *testing.T, w testWindow, before, memo []uint64, scratch []uint8) {
	t.Helper()
	for k, e := range memo {
		if e != before[k] {
			t.Fatalf("memo entry %d changed from %#x to %#x — %s", k, before[k], e, evCleanWB.rule)
		}
		if e == 0 {
			continue
		}
		// Entry k is slot pair i < j at j(j−1)/2 + i.
		j := 1
		for j*(j+1)/2 <= k {
			j++
		}
		i := k - j*(j-1)/2
		key := e >> 16
		in := Inputs{
			Order:    Order(key&(1<<24-1)).Unpack(w.P, nil),
			PrevElem: int(key>>24&15) - 1,
			NextElem: int(key>>28&15) - 1,
		}
		if got, want := int(int16(uint16(e))), w.refSwapDelta(in, i, j, scratch); got != want {
			t.Fatalf("kept memo entry %d (inputs %v, pair %d,%d) holds %d, reference %d — %s",
				k, in, i, j, got, want, evCleanWB.rule)
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
	l := w.Level
	l.WriteBack(noise.NewFabric(5).At(0.3), 6)
	a, c := PackOrder([]int{0, 1, 2}), PackOrder([]int{2, 1, 0})
	b.Run("hit", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			l.SwapDelta(0, a, 1, 2, 0, 2)
		}
	})
	b.Run("miss", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if n&1 == 0 {
				l.SwapDelta(0, a, 1, 2, 0, 2)
			} else {
				l.SwapDelta(0, c, 1, 2, 0, 2)
			}
		}
	})
}
