package anneal

import (
	"context"
	"math"

	"cimsa/internal/ising"
	"cimsa/internal/rng"
)

// SCAOptions configures stochastic cellular automata annealing, the
// all-spins-at-once update rule used by STATICA [18] — the largest
// single-chip competitor in the paper's Table III. Unlike Metropolis
// (one spin at a time) or chromatic updates (independent sets), SCA
// updates *every* spin each step and keeps the dynamics stable with a
// self-interaction penalty q that tethers each spin to its previous
// value; annealing raises q while lowering the temperature.
type SCAOptions struct {
	// Steps is the number of synchronous update rounds.
	Steps int
	// Seed drives the per-spin randomness.
	Seed uint64
}

// SCAResult reports a run.
type SCAResult struct {
	Spins  []int8
	Energy float64
	// Flips counts total spin flips across the run (a healthy run flips
	// heavily early and freezes late).
	Flips int
	// TailFlips counts flips in the final 10% of rounds; near-zero when
	// the q/T schedule has frozen the dynamics.
	TailFlips int
}

// SCA runs stochastic cellular automata annealing on the Ising model.
// Each round, every spin independently samples its next value from the
// logistic distribution of its local field plus the self-interaction
// q·σ_i, using the *previous* round's state — fully parallel, like the
// hardware it models. Both schedules scale to the mean absolute
// coupling |J|: T cools geometrically from 2|J|√N to a thousandth of
// that, and q rises linearly from 0 to 2|J|√N.
func SCA(m *ising.Model, opts SCAOptions) (SCAResult, error) {
	return SCAContext(context.Background(), m, opts)
}

// SCAContext is SCA with cooperative cancellation, checked once per
// synchronous round without consuming randomness: an uncancelled run is
// bit-identical to SCA. On cancellation it returns the best state seen
// so far along with ctx.Err().
func SCAContext(ctx context.Context, m *ising.Model, opts SCAOptions) (SCAResult, error) {
	if err := m.Validate(); err != nil {
		return SCAResult{}, err
	}
	o := opts
	if o.Steps <= 0 {
		o.Steps = 500
	}
	sp := ising.Compile(m)
	// Scale defaults from the mean absolute coupling.
	var sum float64
	var count int
	for i := 0; i < sp.N; i++ {
		cols, vals := sp.Row(i)
		for k, j := range cols {
			if int(j) > i {
				sum += math.Abs(vals[k])
				count++
			}
		}
	}
	meanJ := 1.0
	if count > 0 {
		meanJ = sum / float64(count)
	}
	tStart := 2 * meanJ * math.Sqrt(float64(m.N))
	tEnd := tStart / 1000
	// The penalty must eventually dominate the *typical* local field
	// (~meanJ*sqrt(degree)) so the synchronous dynamics cannot 2-cycle,
	// without swamping it so early that the search freezes prematurely.
	qEnd := 2 * meanJ * math.Sqrt(float64(m.N))
	r := rng.New(o.Seed)
	spins := make([]int8, m.N)
	for i := range spins {
		if r.Bool() {
			spins[i] = 1
		} else {
			spins[i] = -1
		}
	}
	next := make([]int8, m.N)
	fields := make([]float64, m.N)
	best := math.Inf(1)
	bestSpins := make([]int8, m.N)
	res := SCAResult{}

	for step := 0; step < o.Steps; step++ {
		if err := ctx.Err(); err != nil {
			res.Spins = bestSpins
			res.Energy = best
			return res, err
		}
		frac := float64(step) / float64(o.Steps-1+1)
		temp := tStart * math.Pow(tEnd/tStart, frac)
		q := frac * qEnd
		for i := 0; i < m.N; i++ {
			fields[i] = sp.LocalField(spins, i) + q*float64(spins[i])
		}
		for i := 0; i < m.N; i++ {
			// P(next = +1) from the logistic (heat-bath) rule.
			pUp := 1 / (1 + math.Exp(-2*fields[i]/math.Max(temp, 1e-12)))
			if r.Float64() < pUp {
				next[i] = 1
			} else {
				next[i] = -1
			}
			if next[i] != spins[i] {
				res.Flips++
				if step >= o.Steps*9/10 {
					res.TailFlips++
				}
			}
		}
		spins, next = next, spins
		if e := sp.Energy(spins); e < best {
			best = e
			copy(bestSpins, spins)
		}
	}
	res.Spins = bestSpins
	res.Energy = best
	return res, nil
}
