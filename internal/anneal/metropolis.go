package anneal

import (
	"context"
	"math"

	"cimsa/internal/ising"
	"cimsa/internal/rng"
)

// Result summarizes an annealing run.
type Result struct {
	// Energy is the best Hamiltonian value seen.
	Energy float64
	// Accepted and Proposed count Metropolis decisions.
	Accepted, Proposed int
}

// Options configures an annealing run.
type Options struct {
	// Sweeps is the number of full passes over all spins.
	Sweeps int
	// Schedule supplies the temperature; the zero value means
	// Geometric{10, 0.01}.
	Schedule Geometric
	// Seed seeds the Metropolis randomness.
	Seed uint64
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Sweeps == 0 {
		out.Sweeps = 100
	}
	if out.Schedule == (Geometric{}) {
		out.Schedule = Geometric{Start: 10, End: 0.01}
	}
	return out
}

// IsingContext runs single-spin-flip Metropolis annealing on a general
// Ising model, mutating spins in place, and returns the run summary. The
// final spin state is the last accepted state (not necessarily the
// best). It anneals the model's compiled sparse view, so a proposal
// costs O(degree) rather than O(N). The context is checked only at
// sweep boundaries and the check consumes no randomness, so a run whose
// context is never cancelled does not depend on it. On cancellation the
// partial result is returned along with ctx.Err().
func IsingContext(ctx context.Context, m *ising.Model, spins []int8, opts Options) (Result, error) {
	o := opts.withDefaults()
	r := rng.New(o.Seed)
	sp := ising.Compile(m)
	res := Result{Energy: sp.Energy(spins)}
	cur := res.Energy
	for sweep := 0; sweep < o.Sweeps; sweep++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		temp := o.Schedule.Temperature(sweep, o.Sweeps)
		for step := 0; step < m.N; step++ {
			i := r.Intn(m.N)
			delta := sp.DeltaFlip(spins, i)
			res.Proposed++
			if accept(delta, temp, r) {
				ising.FlipSpin(spins, i)
				cur += delta
				res.Accepted++
				if cur < res.Energy {
					res.Energy = cur
				}
			}
		}
	}
	return res, nil
}

// accept implements the Metropolis criterion.
func accept(delta, temp float64, r *rng.Rand) bool {
	if delta <= 0 {
		return true
	}
	if temp <= 0 {
		return false
	}
	return r.Float64() < math.Exp(-delta/temp)
}
