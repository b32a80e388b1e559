package anneal

import (
	"cimsa/internal/ising"
	"cimsa/internal/rng"
	"cimsa/internal/tour"
	"cimsa/internal/tsplib"
)

// TSPResult reports a TSP annealing run.
type TSPResult struct {
	Tour   tour.Tour
	Length float64
	// Proposed/Accepted count swap proposals.
	Proposed, Accepted int
}

// TSPOptions configures the CPU-baseline TSP annealer.
type TSPOptions struct {
	// Sweeps is the number of passes; each pass proposes N swaps.
	Sweeps int
	// Seed seeds proposals and Metropolis decisions.
	Seed uint64
	// Initial is the starting tour; defaults to the identity order.
	Initial tour.Tour
}

// TSP runs the classical CPU simulated-annealing baseline: PBM-style
// order swaps under a Metropolis criterion. This is the software
// reference point for the paper's convergence-speed comparison: the same
// move set as the hardware, but temperature-driven randomness instead of
// noisy SRAM weights, and one sequential update at a time. The schedule
// cools geometrically from the initial tour's mean edge length, so
// acceptance starts high, to a thousandth of it.
func TSP(in *tsplib.Instance, opts TSPOptions) TSPResult {
	n := in.N()
	o := opts
	if o.Sweeps == 0 {
		o.Sweeps = 200
	}
	var t tour.Tour
	if o.Initial != nil {
		t = o.Initial.Clone()
	} else {
		t = tour.New(n)
	}
	mean := t.Length(in) / float64(n)
	schedule := Geometric{Start: mean, End: mean / 1000}
	r := rng.New(o.Seed)
	order := []int(t)
	cur := t.Length(in)
	res := TSPResult{Length: cur}
	best := t.Clone()

	// The swap delta is evaluated through the Ising local-energy identity
	// (four MACs), exactly as the hardware would.
	tspModel := localTSP{in: in}
	for sweep := 0; sweep < o.Sweeps; sweep++ {
		temp := schedule.Temperature(sweep, o.Sweeps)
		for step := 0; step < n; step++ {
			i, j := r.Intn(n), r.Intn(n)
			if i == j {
				continue
			}
			delta := tspModel.swapDelta(order, i, j)
			res.Proposed++
			if accept(delta, temp, r) {
				ising.ApplySwap(order, i, j)
				cur += delta
				res.Accepted++
				if cur < res.Length {
					res.Length = cur
					copy(best, order)
				}
			}
		}
	}
	res.Tour = best
	res.Length = best.Length(in) // re-measure to shed float drift
	return res
}

// localTSP evaluates swap deltas directly from the instance without
// materializing the N x N distance matrix, so the baseline runs on
// instances of any size.
type localTSP struct {
	in *tsplib.Instance
}

// swapDelta is the Eq. 3 local-energy form of a swap: four local spin
// energies, two before and two after the swap. The shared-edge double
// count cancels for adjacent positions.
func (m localTSP) swapDelta(order []int, i, j int) float64 {
	n := len(order)
	k, l := order[i], order[j]
	le := func(pos, city int) float64 {
		prev := order[(pos-1+n)%n]
		next := order[(pos+1)%n]
		return m.in.Dist(prev, city) + m.in.Dist(city, next)
	}
	before := le(i, k) + le(j, l)
	order[i], order[j] = l, k
	after := le(i, l) + le(j, k)
	order[i], order[j] = k, l
	return after - before
}
