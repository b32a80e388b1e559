// Package ising implements the Ising-model substrate of the annealer:
// a general spin system with coupling matrix J and field h, and the
// permutational-Boltzmann-machine (PBM) four-spin swap move that keeps
// the two-way one-hot constraint of the N²-spin TSP formulation (Eq. 3
// of the paper) satisfied by construction. The full formulation is
// pinned against tour lengths in this package's tests.
package ising

import (
	"fmt"
	"math"
)

// Model is a general Ising system H = -Σ J_ij σ_i σ_j - Σ h_i σ_i with
// spins in {-1, +1}. J is stored dense and must be symmetric with a zero
// diagonal; the spin engines anneal its compiled Sparse view.
type Model struct {
	N int
	J [][]float64
	H []float64
}

// NewModel allocates an n-spin model with zero couplings and fields.
func NewModel(n int) *Model {
	j := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range j {
		j[i], backing = backing[:n], backing[n:]
	}
	return &Model{N: n, J: j, H: make([]float64, n)}
}

// SetJ sets the symmetric coupling between spins i and j.
func (m *Model) SetJ(i, j int, v float64) {
	if i == j {
		panic("ising: self-coupling")
	}
	m.J[i][j] = v
	m.J[j][i] = v
}

// Validate checks symmetry and the zero diagonal.
func (m *Model) Validate() error {
	if len(m.J) != m.N || len(m.H) != m.N {
		return fmt.Errorf("ising: model dimensions inconsistent")
	}
	for i := 0; i < m.N; i++ {
		if m.J[i][i] != 0 {
			return fmt.Errorf("ising: nonzero self-coupling at %d", i)
		}
		for j := i + 1; j < m.N; j++ {
			if m.J[i][j] != m.J[j][i] {
				return fmt.Errorf("ising: J not symmetric at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// Energy returns the total Hamiltonian for the spin assignment (spins in
// {-1,+1}).
func (m *Model) Energy(spins []int8) float64 {
	var e float64
	for i := 0; i < m.N; i++ {
		si := float64(spins[i])
		e -= m.H[i] * si
		row := m.J[i]
		for j := i + 1; j < m.N; j++ {
			e -= row[j] * si * float64(spins[j])
		}
	}
	return e
}

// FlipSpin flips spin i in place.
func FlipSpin(spins []int8, i int) { spins[i] = -spins[i] }

// GroundStateEnergyBrute exhaustively minimizes the Hamiltonian; only
// for n <= 24 (tests).
func (m *Model) GroundStateEnergyBrute() float64 {
	if m.N > 24 {
		panic("ising: brute-force ground state limited to 24 spins")
	}
	best := math.Inf(1)
	spins := make([]int8, m.N)
	for mask := 0; mask < 1<<m.N; mask++ {
		for i := 0; i < m.N; i++ {
			if mask&(1<<i) != 0 {
				spins[i] = 1
			} else {
				spins[i] = -1
			}
		}
		if e := m.Energy(spins); e < best {
			best = e
		}
	}
	return best
}

// ApplySwap swaps the cities at positions i and j in place: the PBM
// move, which keeps both one-hot constraints of the TSP formulation
// (Eq. 3) satisfied.
func ApplySwap(order []int, i, j int) { order[i], order[j] = order[j], order[i] }
