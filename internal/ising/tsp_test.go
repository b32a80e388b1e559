package ising

import (
	"fmt"

	"cimsa/internal/tsplib"
)

// The full Eq. 3 formulation lives with its tests: the solvers only use
// its swap identity, in local-energy form, and these tests pin that the
// identity and the tour length agree with the full Hamiltonian.

// TSP is the Ising/QUBO formulation of an N-city TSP (Eq. 3 of the
// paper): spins σ_ik ∈ {0,1} indicate "city k is visited i-th", W is the
// city distance matrix and A, B, C weight the objective and the two
// one-hot constraint penalties.
//
// The permutational-Boltzmann-machine (PBM) update never leaves the
// feasible subspace: four spins are flipped together so both one-hot
// constraints stay satisfied, which is why the hardware never evaluates
// the B and C terms. They are retained here so the full Hamiltonian of
// infeasible states can be checked in tests and ablations.
type TSP struct {
	N       int
	W       [][]float64
	A, B, C float64
}

// NewTSP builds the formulation from an instance. The penalty weights
// follow the usual rule of exceeding the largest distance so that
// violating a constraint can never pay off.
func NewTSP(in *tsplib.Instance) *TSP {
	w := in.DistanceMatrix()
	maxW := 0.0
	for i := range w {
		for j := range w[i] {
			if w[i][j] > maxW {
				maxW = w[i][j]
			}
		}
	}
	return &TSP{N: in.N(), W: w, A: 1, B: 2 * maxW, C: 2 * maxW}
}

// SpinCount returns the number of binary spins, N².
func (t *TSP) SpinCount() int { return t.N * t.N }

// spinIndex maps (order i, city k) to a flat spin index.
func (t *TSP) spinIndex(i, k int) int { return i*t.N + k }

// StateFromOrder builds the (feasible) spin state for a visiting order:
// order[i] = city visited i-th.
func (t *TSP) StateFromOrder(order []int) []bool {
	if len(order) != t.N {
		panic(fmt.Sprintf("ising: order length %d, want %d", len(order), t.N))
	}
	s := make([]bool, t.SpinCount())
	for i, k := range order {
		s[t.spinIndex(i, k)] = true
	}
	return s
}

// Energy evaluates the full Hamiltonian of an arbitrary (possibly
// infeasible) spin state.
func (t *TSP) Energy(s []bool) float64 {
	n := t.N
	var obj float64
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		for k := 0; k < n; k++ {
			if !s[t.spinIndex(i, k)] {
				continue
			}
			for l := 0; l < n; l++ {
				if k != l && s[t.spinIndex(next, l)] {
					obj += t.W[k][l]
				}
			}
		}
	}
	var rowPen float64
	for i := 0; i < n; i++ {
		sum := 0
		for k := 0; k < n; k++ {
			if s[t.spinIndex(i, k)] {
				sum++
			}
		}
		rowPen += float64((sum - 1) * (sum - 1))
	}
	var colPen float64
	for k := 0; k < n; k++ {
		sum := 0
		for i := 0; i < n; i++ {
			if s[t.spinIndex(i, k)] {
				sum++
			}
		}
		colPen += float64((sum - 1) * (sum - 1))
	}
	return t.A*obj + t.B*rowPen + t.C*colPen
}

// TourEnergy returns the objective value of a feasible visiting order:
// A times the closed tour length.
func (t *TSP) TourEnergy(order []int) float64 {
	var sum float64
	for i := 0; i < t.N; i++ {
		sum += t.W[order[i]][order[(i+1)%t.N]]
	}
	return t.A * sum
}

// LocalEnergy returns the distance-term local energy of spin (i,k) in a
// feasible state given as a visiting order: the MAC output the CIM
// hardware computes, a·Σ_l W_kl (σ_(i-1)l + σ_(i+1)l) when σ_ik = 1,
// i.e. the lengths of the two tour edges incident to position i.
func (t *TSP) LocalEnergy(order []int, i, k int) float64 {
	n := t.N
	prev := order[(i-1+n)%n]
	next := order[(i+1)%n]
	return t.A * (t.W[prev][k] + t.W[k][next])
}

// SwapLocalDelta computes the energy change of swapping the cities at
// positions i and j exactly as the hardware does (Fig. 5a): four local
// spin energies, two before the swap and two after,
//
//	ΔH = H(σ'_il) + H(σ'_jk) − H(σ_ik) − H(σ_jl).
//
// For adjacent positions the shared middle edge appears in both the
// before and after pairs and cancels, so the identity holds for every
// position pair. The state is not modified.
func (t *TSP) SwapLocalDelta(order []int, i, j int) float64 {
	k, l := order[i], order[j]
	before := t.LocalEnergy(order, i, k) + t.LocalEnergy(order, j, l)
	order[i], order[j] = l, k
	after := t.LocalEnergy(order, i, l) + t.LocalEnergy(order, j, k)
	order[i], order[j] = k, l
	return after - before
}
