package ising_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"cimsa/internal/anneal"
	"cimsa/internal/ising"
	"cimsa/internal/maxcut"
	"cimsa/internal/problem"
	"cimsa/internal/problem/isingprob"
	"cimsa/internal/rng"
)

var negZero = math.Copysign(0, -1)

// differentialModels are the ±0 corner cases plus dense and sparse
// random models. Each is checked against the dense reference rows.
func differentialModels(t *testing.T) map[string]*ising.Model {
	t.Helper()
	models := map[string]*ising.Model{}

	// Spin 3 has a zero diagonal and no off-diagonal entries, so its
	// field is -diag/2 = -0; the zero (1,2) entry makes J = -0 there.
	qubo, err := isingprob.QUBOTaskFromSpec(&isingprob.QUBOSpec{N: 4, Q: []isingprob.CouplingSpec{
		{I: 0, J: 0, V: -1}, {I: 0, J: 1, V: 2}, {I: 1, J: 2, V: 0}, {I: 2, J: 2, V: 0.5},
	}}, problem.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if h := qubo.Model().H[3]; h != 0 || !math.Signbit(h) {
		t.Fatalf("qubo spin 3 field %v, want -0", h)
	}
	models["qubo-negzero-field"] = qubo.Model()

	// A qubo whose every entry is zero: all fields and couplings -0.
	zeros, err := isingprob.QUBOTaskFromSpec(&isingprob.QUBOSpec{N: 3, Q: []isingprob.CouplingSpec{
		{I: 0, J: 1, V: 0}, {I: 1, J: 2, V: 0}, {I: 0, J: 2, V: 0},
	}}, problem.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	models["qubo-all-zero"] = zeros.Model()

	g := &maxcut.Graph{N: 5, Edges: []maxcut.Edge{{U: 0, V: 1, W: 0}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 0}, {U: 3, V: 4, W: 2}, {U: 0, V: 4, W: 0}}}
	mc, err := g.ToIsing()
	if err != nil {
		t.Fatal(err)
	}
	models["maxcut-zero-weights"] = mc

	signed := ising.NewModel(4)
	signed.SetJ(0, 1, negZero)
	signed.SetJ(1, 2, 1)
	signed.SetJ(2, 3, negZero)
	signed.SetJ(0, 3, -1)
	signed.H[0], signed.H[2] = negZero, negZero
	models["ising-negzero-couplings"] = signed

	models["all-zero"] = ising.NewModel(6)

	two := ising.NewModel(2)
	two.SetJ(0, 1, 1)
	models["n2"] = two
	models["n2-zero"] = ising.NewModel(2)
	models["n2-negzero"] = negZeroPair()

	// ±1 spin glasses with zero fields: even-degree spins see exactly
	// zero fields often, so the delta <= 0 branch sees ±0 deltas.
	r := rng.New(11)
	for _, shape := range []struct {
		name    string
		n       int
		density float64
	}{{"glass-sparse", 40, 0.1}, {"glass-dense", 16, 0.9}} {
		m := ising.NewModel(shape.n)
		for i := 0; i < shape.n; i++ {
			for j := i + 1; j < shape.n; j++ {
				if r.Float64() < shape.density {
					v := 1.0
					if r.Bool() {
						v = -1
					}
					m.SetJ(i, j, v)
				}
			}
		}
		models[shape.name] = m
	}
	return models
}

// negZeroPair is two spins joined by a -0 coupling, spin 0 under a -0
// field.
func negZeroPair() *ising.Model {
	m := ising.NewModel(2)
	m.SetJ(0, 1, negZero)
	m.H[0] = negZero
	return m
}

// sameOrBothZero reports whether a and b have the same bits, or are
// both zero. A field that sums to exactly zero is the one place the
// sparse sum may differ from the dense one: in the sign of that zero.
func sameOrBothZero(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

func TestSparseMatchesDenseReference(t *testing.T) {
	for name, m := range differentialModels(t) {
		t.Run(name, func(t *testing.T) {
			sp := ising.Compile(m)
			r := rng.New(uint64(m.N))
			for trial := 0; trial < 64; trial++ {
				spins := anneal.RandomSpins(m.N, r.Uint64())
				if got, want := sp.Energy(spins), m.Energy(spins); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Energy %v (%#x), dense %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
				}
				for i := 0; i < m.N; i++ {
					if got, want := sp.LocalField(spins, i), m.LocalField(spins, i); !sameOrBothZero(got, want) {
						t.Fatalf("LocalField(%d) %v, dense %v", i, got, want)
					}
					if got, want := sp.DeltaFlip(spins, i), m.DeltaFlip(spins, i); !sameOrBothZero(got, want) {
						t.Fatalf("DeltaFlip(%d) %v, dense %v", i, got, want)
					}
				}
			}
		})
	}
}

// TestSparseZeroSignCanDiffer documents the corner the bit-identity
// argument rests on: a -0 field plus a -0 coupling to a down spin sums
// to +0 densely but stays -0 sparsely. The engines never tell them
// apart.
func TestSparseZeroSignCanDiffer(t *testing.T) {
	m := negZeroPair()
	spins := []int8{1, -1}
	dense, sparse := m.LocalField(spins, 0), ising.Compile(m).LocalField(spins, 0)
	if math.Signbit(dense) || !math.Signbit(sparse) {
		t.Fatalf("dense %v (signbit %v), sparse %v (signbit %v): expected +0 and -0", dense, math.Signbit(dense), sparse, math.Signbit(sparse))
	}
}

// denseMetropolis is anneal.IsingContext over the dense reference rows.
func denseMetropolis(m *ising.Model, spins []int8, o anneal.Options) anneal.Result {
	r := rng.New(o.Seed)
	res := anneal.Result{Energy: m.Energy(spins)}
	cur := res.Energy
	for sweep := 0; sweep < o.Sweeps; sweep++ {
		temp := o.Schedule.Temperature(sweep, o.Sweeps)
		for step := 0; step < m.N; step++ {
			i := r.Intn(m.N)
			delta := m.DeltaFlip(spins, i)
			res.Proposed++
			ok := delta <= 0
			if !ok && temp > 0 {
				ok = r.Float64() < math.Exp(-delta/temp)
			}
			if ok {
				ising.FlipSpin(spins, i)
				cur += delta
				res.Accepted++
				if cur < res.Energy {
					res.Energy = cur
				}
			}
		}
	}
	return res
}

// denseSCA is anneal.SCAContext over the dense reference rows.
func denseSCA(m *ising.Model, o anneal.SCAOptions) anneal.SCAResult {
	var sum float64
	var count int
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			if m.J[i][j] != 0 {
				sum += math.Abs(m.J[i][j])
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
	res := anneal.SCAResult{Energy: math.Inf(1), Spins: make([]int8, m.N)}
	for step := 0; step < o.Steps; step++ {
		frac := float64(step) / float64(o.Steps-1+1)
		temp := tStart * math.Pow(tEnd/tStart, frac)
		q := frac * qEnd
		for i := 0; i < m.N; i++ {
			fields[i] = m.LocalField(spins, i) + q*float64(spins[i])
		}
		for i := 0; i < m.N; i++ {
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
		if e := m.Energy(spins); e < res.Energy {
			res.Energy = e
			copy(res.Spins, spins)
		}
	}
	return res
}

func TestSparseEnginesMatchDenseRuns(t *testing.T) {
	schedules := []anneal.Geometric{
		{Start: 4, End: 0.01},
		// Near-greedy: every uphill move is rejected, so the run turns
		// on which delta <= 0 moves land, ±0 included.
		{Start: 1e-300, End: 1e-300},
	}
	for name, m := range differentialModels(t) {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				for _, sched := range schedules {
					opts := anneal.Options{Sweeps: 60, Seed: seed, Schedule: sched}
					spins := anneal.RandomSpins(m.N, seed)
					want := append([]int8(nil), spins...)
					got, err := anneal.IsingContext(context.Background(), m, spins, opts)
					if err != nil {
						t.Fatal(err)
					}
					ref := denseMetropolis(m, want, opts)
					if !reflect.DeepEqual(spins, want) || got.Accepted != ref.Accepted || got.Proposed != ref.Proposed ||
						math.Float64bits(got.Energy) != math.Float64bits(ref.Energy) {
						t.Fatalf("seed %d %v: metropolis drifted from the dense reference:\n got %+v %v\nwant %+v %v", seed, sched, got, spins, ref, want)
					}
				}
				opts := anneal.SCAOptions{Steps: 80, Seed: seed}
				got, err := anneal.SCA(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				ref := denseSCA(m, opts)
				if !reflect.DeepEqual(got.Spins, ref.Spins) || got.Flips != ref.Flips || got.TailFlips != ref.TailFlips ||
					math.Float64bits(got.Energy) != math.Float64bits(ref.Energy) {
					t.Fatalf("seed %d: sca drifted from the dense reference:\n got %+v\nwant %+v", seed, got, ref)
				}
			}
		})
	}
}
