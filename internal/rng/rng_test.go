package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d vs %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not be a shifted copy of the parent stream.
	parentVals := make(map[uint64]bool)
	for i := 0; i < 200; i++ {
		parentVals[parent.Uint64()] = true
	}
	collisions := 0
	for i := 0; i < 200; i++ {
		if parentVals[child.Uint64()] {
			collisions++
		}
	}
	if collisions > 2 {
		t.Fatalf("child stream collides with parent %d/200 times", collisions)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(17)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(19)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		expect := trials / n
		if c < expect*8/10 || c > expect*12/10 {
			t.Fatalf("Intn(%d) bucket %d has count %d, expected ~%d", n, i, c, expect)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermIsShuffled(t *testing.T) {
	r := New(29)
	identity := 0
	for trial := 0; trial < 100; trial++ {
		p := r.Perm(20)
		fixed := 0
		for i, v := range p {
			if i == v {
				fixed++
			}
		}
		if fixed == 20 {
			identity++
		}
	}
	if identity > 0 {
		t.Fatalf("Perm(20) produced the identity %d/100 times", identity)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(31)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(37)
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	if trues < n*45/100 || trues > n*55/100 {
		t.Fatalf("Bool returned true %d/%d times", trues, n)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(41)
	s := []int{1, 2, 3, 4, 5, 6, 7}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 28 {
		t.Fatalf("shuffle lost elements: sum %d", sum)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

// Golden vectors pin the stream across releases: stability of both the
// output sequence and the State() words is the package's stated
// contract, because checkpoint files persist these words as the seed's
// fingerprint and a resumed run must draw the exact stream an
// uninterrupted run would have drawn. If this test ever fails, the
// checkpoint format has silently broken — fix the generator, never the
// vectors.
func TestStateGoldenVectors(t *testing.T) {
	r := New(42)
	wantState0 := [4]uint64{0xbdd732262feb6e95, 0x28efe333b266f103, 0x47526757130f9f52, 0x581ce1ff0e4ae394}
	if got := r.State(); got != wantState0 {
		t.Fatalf("New(42).State() = %#v, want %#v", got, wantState0)
	}
	wantOuts := []uint64{
		0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1,
		0xfde6dc7fe2ec5e64, 0xc50da53101795238, 0xb82154855a65ddb2, 0xd99a2743ebe60087,
	}
	wantState4 := [4]uint64{0x6db07c7dd404690b, 0x81ddc5fe6c157698, 0x25cfe223490d9d1f, 0x9252543d113b0c36}
	for i, want := range wantOuts {
		if i == 4 {
			if got := r.State(); got != wantState4 {
				t.Fatalf("state after 4 outputs = %#v, want %#v", got, wantState4)
			}
		}
		if got := r.Uint64(); got != want {
			t.Fatalf("New(42) output %d = %#x, want %#x", i, got, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}
