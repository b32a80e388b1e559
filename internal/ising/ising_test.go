package ising

import (
	"math"
	"testing"
	"testing/quick"

	"cimsa/internal/rng"
	"cimsa/internal/tsplib"
)

func randomModel(r *rng.Rand, n int) *Model {
	m := NewModel(n)
	for i := 0; i < n; i++ {
		m.H[i] = r.NormFloat64()
		for j := i + 1; j < n; j++ {
			m.SetJ(i, j, r.NormFloat64())
		}
	}
	return m
}

func randomSpins(r *rng.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		if r.Bool() {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}

func TestModelValidate(t *testing.T) {
	m := randomModel(rng.New(1), 6)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.J[1][2] = 99 // break symmetry
	if err := m.Validate(); err == nil {
		t.Fatal("asymmetric J accepted")
	}
}

func TestSetJPanicsOnDiagonal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetJ(i,i) did not panic")
		}
	}()
	NewModel(3).SetJ(1, 1, 1)
}

func TestDeltaFlipMatchesFullEnergy(t *testing.T) {
	r := rng.New(2)
	f := func(nRaw, iRaw uint8) bool {
		n := int(nRaw%10) + 2
		i := int(iRaw) % n
		m := randomModel(r, n)
		s := randomSpins(r, n)
		before := m.Energy(s)
		delta := Compile(m).DeltaFlip(s, i)
		FlipSpin(s, i)
		after := m.Energy(s)
		return math.Abs((after-before)-delta) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalEnergySumsToTwiceTotal(t *testing.T) {
	// Σ_i H(σ_i) = -Σ_i (Σ_j J_ij σ_j + h_i) σ_i (Eq. 2) counts each
	// coupling twice and each field once: it equals 2H + Σ h_i σ_i.
	r := rng.New(3)
	m := randomModel(r, 8)
	sp := Compile(m)
	s := randomSpins(r, 8)
	var localSum, fieldTerm float64
	for i := 0; i < m.N; i++ {
		localSum += -sp.LocalField(s, i) * float64(s[i])
		fieldTerm += m.H[i] * float64(s[i])
	}
	want := 2*m.Energy(s) + fieldTerm
	if math.Abs(localSum-want) > 1e-9 {
		t.Fatalf("local energy sum %v, want %v", localSum, want)
	}
}

func TestGroundStateFerromagnet(t *testing.T) {
	// All-positive couplings: ground state is all-aligned with energy
	// -Σ J_ij.
	m := NewModel(5)
	var sum float64
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			m.SetJ(i, j, 1)
			sum++
		}
	}
	if got := m.GroundStateEnergyBrute(); got != -sum {
		t.Fatalf("ferromagnet ground state %v, want %v", got, -sum)
	}
	aligned := []int8{1, 1, 1, 1, 1}
	if got := m.Energy(aligned); got != -sum {
		t.Fatalf("aligned energy %v, want %v", got, -sum)
	}
}

// ---- TSP formulation ----

func tspFixture(n int, seed uint64) *TSP {
	in := tsplib.Generate("ising-test", n, tsplib.StyleUniform, seed)
	return NewTSP(in)
}

func TestStateFromOrderFeasibleEnergy(t *testing.T) {
	tsp := tspFixture(6, 1)
	order := []int{0, 1, 2, 3, 4, 5}
	s := tsp.StateFromOrder(order)
	full := tsp.Energy(s)
	perm := tsp.TourEnergy(order)
	if math.Abs(full-perm) > 1e-9 {
		t.Fatalf("feasible full energy %v != tour energy %v", full, perm)
	}
}

func TestInfeasiblePenalized(t *testing.T) {
	tsp := tspFixture(5, 2)
	s := tsp.StateFromOrder([]int{0, 1, 2, 3, 4})
	feasible := tsp.Energy(s)
	// Visit city 1 twice (row 2 now has two cities, city 1 twice).
	s[tsp.spinIndex(2, 1)] = true
	infeasible := tsp.Energy(s)
	if infeasible <= feasible {
		t.Fatalf("constraint violation not penalized: %v <= %v", infeasible, feasible)
	}
	if infeasible-feasible < tsp.B {
		t.Fatalf("penalty %v smaller than B=%v", infeasible-feasible, tsp.B)
	}
}

func TestTourEnergyMatchesInstanceLength(t *testing.T) {
	in := tsplib.Generate("ising-len", 10, tsplib.StyleClustered, 3)
	tsp := NewTSP(in)
	order := rng.New(4).Perm(10)
	var want float64
	for i := 0; i < 10; i++ {
		want += in.Dist(order[i], order[(i+1)%10])
	}
	if got := tsp.TourEnergy(order); math.Abs(got-want) > 1e-9 {
		t.Fatalf("tour energy %v, want %v", got, want)
	}
}

func TestSwapLocalDeltaMatchesFullRecompute(t *testing.T) {
	tsp := tspFixture(9, 5)
	r := rng.New(6)
	f := func(iRaw, jRaw uint8) bool {
		order := r.Perm(tsp.N)
		i := int(iRaw) % tsp.N
		j := int(jRaw) % tsp.N
		if i == j {
			return true
		}
		before := tsp.TourEnergy(order)
		delta := tsp.SwapLocalDelta(order, i, j)
		ApplySwap(order, i, j)
		after := tsp.TourEnergy(order)
		return math.Abs((after-before)-delta) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSwapLocalDeltaAdjacent(t *testing.T) {
	// The adjacent-swap case double-counts the shared middle edge on both
	// sides of the comparison; it must cancel exactly.
	tsp := tspFixture(7, 7)
	order := []int{3, 1, 4, 0, 6, 2, 5}
	for i := 0; i < 7; i++ {
		j := (i + 1) % 7
		before := tsp.TourEnergy(order)
		delta := tsp.SwapLocalDelta(order, i, j)
		ApplySwap(order, i, j)
		after := tsp.TourEnergy(order)
		if math.Abs((after-before)-delta) > 1e-9 {
			t.Fatalf("adjacent swap (%d,%d): delta %v, actual %v", i, j, delta, after-before)
		}
		ApplySwap(order, i, j) // restore
	}
}

func TestSwapLocalDeltaDoesNotMutate(t *testing.T) {
	tsp := tspFixture(6, 8)
	order := []int{5, 3, 1, 0, 2, 4}
	orig := append([]int(nil), order...)
	tsp.SwapLocalDelta(order, 1, 4)
	for i := range order {
		if order[i] != orig[i] {
			t.Fatal("SwapLocalDelta mutated the order")
		}
	}
}

func TestLocalEnergyIsEdgeSum(t *testing.T) {
	tsp := tspFixture(8, 9)
	order := rng.New(10).Perm(8)
	for i, k := range order {
		prev := order[(i-1+8)%8]
		next := order[(i+1)%8]
		want := tsp.W[prev][k] + tsp.W[k][next]
		if got := tsp.LocalEnergy(order, i, k); math.Abs(got-want) > 1e-9 {
			t.Fatalf("local energy (%d,%d) = %v, want %v", i, k, got, want)
		}
	}
}

func TestStateFromOrderPanicsOnBadLength(t *testing.T) {
	tsp := tspFixture(5, 11)
	defer func() {
		if recover() == nil {
			t.Fatal("short order did not panic")
		}
	}()
	tsp.StateFromOrder([]int{0, 1})
}

func TestPenaltyWeightsExceedDistances(t *testing.T) {
	tsp := tspFixture(12, 12)
	maxW := 0.0
	for i := range tsp.W {
		for j := range tsp.W[i] {
			if tsp.W[i][j] > maxW {
				maxW = tsp.W[i][j]
			}
		}
	}
	if tsp.B <= maxW || tsp.C <= maxW {
		t.Fatalf("penalties B=%v C=%v do not dominate max distance %v", tsp.B, tsp.C, maxW)
	}
}

func TestFullIsingFormulationSolvesTinyTSP(t *testing.T) {
	// End-to-end Eq. (3): anneal the raw N²-spin QUBO with single-bit
	// flips under the penalty terms and verify a feasible, near-optimal
	// tour emerges. This is the unclustered formulation the paper's
	// optimizations start from.
	in := tsplib.Generate("ising-e2e", 6, tsplib.StyleUniform, 42)
	tsp := NewTSP(in)
	n := tsp.N
	r := rng.New(7)
	// Start from a feasible state and propose PBM swaps (the move set
	// that keeps both one-hot constraints satisfied).
	order := r.Perm(n)
	cur := tsp.TourEnergy(order)
	temp := cur / float64(n)
	for it := 0; it < 20000; it++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		delta := tsp.SwapLocalDelta(order, i, j)
		if delta <= 0 || r.Float64() < mathExp(-delta/temp) {
			ApplySwap(order, i, j)
			cur += delta
		}
		temp *= 0.9997
	}
	// Feasibility: the state built from the order satisfies Eq. (3) with
	// zero penalty.
	state := tsp.StateFromOrder(order)
	full := tsp.Energy(state)
	if diff := full - tsp.TourEnergy(order); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("penalties nonzero on feasible state: %v", diff)
	}
	// Quality: within 5% of brute-force optimum.
	best := bruteForceLengthIsing(in)
	if cur > 1.05*best {
		t.Fatalf("annealed energy %v vs optimum %v", cur, best)
	}
}

func mathExp(x float64) float64 { return math.Exp(x) }

func bruteForceLengthIsing(in *tsplib.Instance) float64 {
	n := in.N()
	perm := make([]int, n-1)
	for i := range perm {
		perm[i] = i + 1
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			l := in.Dist(0, perm[0])
			for i := 1; i < len(perm); i++ {
				l += in.Dist(perm[i-1], perm[i])
			}
			l += in.Dist(perm[len(perm)-1], 0)
			if l < best {
				best = l
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}
