package anneal

import (
	"context"
	"math"
	"testing"

	"cimsa/internal/ising"
	"cimsa/internal/rng"
	"cimsa/internal/tsplib"
)

func TestGeometricSchedule(t *testing.T) {
	g := Geometric{Start: 10, End: 0.1}
	if got := g.Temperature(0, 100); math.Abs(got-10) > 1e-12 {
		t.Fatalf("T(0) = %v", got)
	}
	if got := g.Temperature(99, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("T(end) = %v", got)
	}
	// Monotone decreasing.
	prev := math.Inf(1)
	for it := 0; it < 100; it++ {
		cur := g.Temperature(it, 100)
		if cur > prev {
			t.Fatalf("geometric schedule not monotone at %d", it)
		}
		prev = cur
	}
	if got := g.Temperature(0, 1); got != 0.1 {
		t.Fatalf("degenerate steps: %v", got)
	}
}

func TestAcceptRules(t *testing.T) {
	r := rng.New(1)
	if !accept(-1, 0.5, r) {
		t.Fatal("downhill move rejected")
	}
	if !accept(0, 0.5, r) {
		t.Fatal("neutral move rejected")
	}
	if accept(1, 0, r) {
		t.Fatal("uphill move accepted at T=0")
	}
	// At high temperature almost everything is accepted.
	acc := 0
	for i := 0; i < 1000; i++ {
		if accept(0.1, 100, r) {
			acc++
		}
	}
	if acc < 950 {
		t.Fatalf("high-T acceptance only %d/1000", acc)
	}
	// At low temperature large uphill moves are essentially never taken.
	acc = 0
	for i := 0; i < 1000; i++ {
		if accept(10, 0.1, r) {
			acc++
		}
	}
	if acc > 0 {
		t.Fatalf("low-T acceptance %d/1000 for delta/T=100", acc)
	}
}

func TestIsingFindsFerromagnetGround(t *testing.T) {
	// 12-spin ferromagnet: ground energy -66 (all aligned).
	n := 12
	m := ising.NewModel(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.SetJ(i, j, 1)
		}
	}
	spins := make([]int8, n)
	for i := range spins {
		if i%2 == 0 {
			spins[i] = 1
		} else {
			spins[i] = -1
		}
	}
	res, err := IsingContext(context.Background(), m, spins, Options{Sweeps: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := -float64(n * (n - 1) / 2)
	if res.Energy != want {
		t.Fatalf("annealer reached %v, ground is %v", res.Energy, want)
	}
	if res.Proposed == 0 || res.Accepted == 0 {
		t.Fatal("no proposals recorded")
	}
}

func TestIsingDeterministic(t *testing.T) {
	m := ising.NewModel(10)
	r := rng.New(5)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			m.SetJ(i, j, r.NormFloat64())
		}
	}
	mk := func() []int8 {
		s := make([]int8, 10)
		for i := range s {
			s[i] = 1
		}
		return s
	}
	a, _ := IsingContext(context.Background(), m, mk(), Options{Sweeps: 50, Seed: 7})
	b, _ := IsingContext(context.Background(), m, mk(), Options{Sweeps: 50, Seed: 7})
	if a.Energy != b.Energy || a.Accepted != b.Accepted {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

func TestTSPAnnealerImprovesAndValid(t *testing.T) {
	in := tsplib.Generate("sa-test", 60, tsplib.StyleUniform, 1)
	res := TSP(in, TSPOptions{Sweeps: 400, Seed: 3})
	if err := res.Tour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	identLen := 0.0
	for i := 0; i < in.N(); i++ {
		identLen += in.Dist(i, (i+1)%in.N())
	}
	if res.Length >= identLen {
		t.Fatalf("SA did not improve on identity tour: %v >= %v", res.Length, identLen)
	}
	if got := res.Tour.Length(in); math.Abs(got-res.Length) > 1e-6 {
		t.Fatalf("reported %v but tour measures %v", res.Length, got)
	}
}

func TestTSPAnnealerNearOptimalTiny(t *testing.T) {
	in := tsplib.Generate("sa-tiny", 10, tsplib.StyleUniform, 2)
	res := TSP(in, TSPOptions{Sweeps: 2000, Seed: 4})
	// Brute-force optimal for comparison.
	best := bruteForceLength(in)
	if res.Length > 1.05*best {
		t.Fatalf("SA %v more than 5%% above optimal %v", res.Length, best)
	}
}

func bruteForceLength(in *tsplib.Instance) float64 {
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

func TestTSPDeterministic(t *testing.T) {
	in := tsplib.Generate("sa-det", 40, tsplib.StyleClustered, 5)
	a := TSP(in, TSPOptions{Sweeps: 100, Seed: 9})
	b := TSP(in, TSPOptions{Sweeps: 100, Seed: 9})
	if a.Length != b.Length {
		t.Fatalf("runs differ: %v vs %v", a.Length, b.Length)
	}
}

func TestTSPInitialTourRespected(t *testing.T) {
	in := tsplib.Generate("sa-init", 30, tsplib.StyleUniform, 6)
	init := TSP(in, TSPOptions{Sweeps: 300, Seed: 7}).Tour
	res := TSP(in, TSPOptions{Sweeps: 50, Seed: 8, Initial: init})
	// Starting from a good tour, the result must not be worse than it.
	if res.Length > init.Length(in)+1e-9 {
		t.Fatalf("warm start regressed: %v > %v", res.Length, init.Length(in))
	}
}

func TestSwapDeltaConsistency(t *testing.T) {
	in := tsplib.Generate("sa-delta", 15, tsplib.StyleUniform, 8)
	m := localTSP{in: in}
	r := rng.New(11)
	order := r.Perm(15)
	lengthOf := func(o []int) float64 {
		var s float64
		for i := range o {
			s += in.Dist(o[i], o[(i+1)%len(o)])
		}
		return s
	}
	for trial := 0; trial < 200; trial++ {
		i, j := r.Intn(15), r.Intn(15)
		if i == j {
			continue
		}
		before := lengthOf(order)
		delta := m.swapDelta(order, i, j)
		order[i], order[j] = order[j], order[i]
		after := lengthOf(order)
		if math.Abs((after-before)-delta) > 1e-9 {
			t.Fatalf("swap (%d,%d): delta %v, actual %v", i, j, delta, after-before)
		}
	}
}

func BenchmarkTSPAnneal200(b *testing.B) {
	in := tsplib.Generate("sa-bench", 200, tsplib.StyleUniform, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TSP(in, TSPOptions{Sweeps: 50, Seed: uint64(i)})
	}
}
