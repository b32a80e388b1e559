// Package anneal implements classical simulated annealing: a geometric
// temperature schedule, a generic Metropolis engine over Ising models,
// stochastic cellular automata, and CPU-baseline TSP annealers using the
// PBM swap move. These are the software baselines the paper's hardware
// annealer is compared against.
package anneal

import "math"

// Geometric cools T from Start to End geometrically: the classic SA
// schedule.
type Geometric struct {
	Start, End float64
}

// Temperature returns T at iteration it of total steps.
func (g Geometric) Temperature(it, steps int) float64 {
	if steps <= 1 {
		return g.End
	}
	frac := float64(it) / float64(steps-1)
	return g.Start * math.Pow(g.End/g.Start, frac)
}
