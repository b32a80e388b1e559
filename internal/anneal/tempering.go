package anneal

import (
	"math"

	"cimsa/internal/ising"
	"cimsa/internal/rng"
	"cimsa/internal/tour"
	"cimsa/internal/tsplib"
)

// TemperingOptions configures the parallel-tempering TSP baseline (the
// permutational Boltzmann machine of the paper's reference [5] runs its
// PBM replicas under exactly this scheme).
type TemperingOptions struct {
	// Sweeps is the number of update rounds; each round proposes N swaps
	// per replica and then attempts neighbour exchanges.
	Sweeps int
	// Seed drives all randomness.
	Seed uint64
	// Initial is the starting tour for every replica (default identity).
	Initial tour.Tour
}

// TemperingResult reports a parallel-tempering run.
type TemperingResult struct {
	Tour   tour.Tour
	Length float64
	// Exchanges counts accepted replica swaps (a healthy run exchanges
	// frequently; ~0 means the ladder is too sparse).
	Exchanges int
	// ExchangeAttempts counts exchange proposals.
	ExchangeAttempts int
}

// temperingReplicas is the number of parallel chains.
const temperingReplicas = 4

// TemperingTSP runs parallel tempering with the PBM swap move: four
// replicas anneal at fixed temperatures and periodically exchange
// configurations, letting hot replicas ferry the search out of local
// minima that trap the cold ones. The geometric temperature ladder runs
// from the initial tour's mean edge length down to 1/200 of it. It is
// the strongest classical baseline in this repository.
func TemperingTSP(in *tsplib.Instance, opts TemperingOptions) TemperingResult {
	n := in.N()
	o := opts
	if o.Sweeps == 0 {
		o.Sweeps = 200
	}
	base := tour.New(n)
	if o.Initial != nil {
		base = o.Initial.Clone()
	}
	tMax := base.Length(in) / float64(n) // ~mean edge length
	tMin := tMax / 200
	// Geometric ladder from cold (index 0) to hot.
	temps := make([]float64, temperingReplicas)
	for r := range temps {
		frac := float64(r) / float64(temperingReplicas-1)
		temps[r] = tMin * math.Pow(tMax/tMin, frac)
	}
	rand := rng.New(o.Seed)
	model := localTSP{in: in}

	type replica struct {
		order  []int
		length float64
		r      *rng.Rand
	}
	reps := make([]*replica, temperingReplicas)
	for i := range reps {
		t := base.Clone()
		reps[i] = &replica{order: t, length: t.Length(in), r: rand.Split()}
	}
	best := base.Clone()
	bestLen := best.Length(in)

	res := TemperingResult{}
	for sweep := 0; sweep < o.Sweeps; sweep++ {
		for ri, rep := range reps {
			temp := temps[ri]
			for step := 0; step < n; step++ {
				i, j := rep.r.Intn(n), rep.r.Intn(n)
				if i == j {
					continue
				}
				delta := model.swapDelta(rep.order, i, j)
				if accept(delta, temp, rep.r) {
					ising.ApplySwap(rep.order, i, j)
					rep.length += delta
					if rep.length < bestLen {
						bestLen = rep.length
						copy(best, rep.order)
					}
				}
			}
		}
		// Neighbour exchanges, alternating parity to keep detailed
		// balance across the ladder.
		start := sweep % 2
		for ri := start; ri+1 < temperingReplicas; ri += 2 {
			res.ExchangeAttempts++
			a, b := reps[ri], reps[ri+1]
			// Metropolis exchange criterion on inverse temperatures.
			dBeta := 1/temps[ri] - 1/temps[ri+1]
			dE := b.length - a.length
			if dBeta*dE <= 0 || rand.Float64() < math.Exp(-dBeta*dE) {
				a.order, b.order = b.order, a.order
				a.length, b.length = b.length, a.length
				res.Exchanges++
			}
		}
	}
	// Final quench: the coldest replica still runs at tMin > 0, so finish
	// the best configuration with zero-temperature sweeps (accept only
	// strict improvements) until no proposal in a sweep lands.
	quench := rand.Split()
	bestOrder := []int(best)
	for sweep := 0; sweep < 20; sweep++ {
		improved := false
		for step := 0; step < 4*n; step++ {
			i, j := quench.Intn(n), quench.Intn(n)
			if i == j {
				continue
			}
			if delta := model.swapDelta(bestOrder, i, j); delta < 0 {
				ising.ApplySwap(bestOrder, i, j)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	res.Tour = best
	res.Length = best.Length(in)
	return res
}
