package anneal

import (
	"testing"

	"cimsa/internal/tsplib"
)

func TestTemperingValidAndImproves(t *testing.T) {
	in := tsplib.Generate("pt-basic", 80, tsplib.StyleUniform, 1)
	res := TemperingTSP(in, TemperingOptions{Sweeps: 150, Seed: 1})
	if err := res.Tour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	identLen := 0.0
	for i := 0; i < in.N(); i++ {
		identLen += in.Dist(i, (i+1)%in.N())
	}
	if res.Length >= identLen {
		t.Fatalf("tempering did not improve identity tour: %v >= %v", res.Length, identLen)
	}
}

func TestTemperingExchangesHappen(t *testing.T) {
	in := tsplib.Generate("pt-exch", 60, tsplib.StyleClustered, 2)
	res := TemperingTSP(in, TemperingOptions{Sweeps: 100, Seed: 3})
	if res.ExchangeAttempts == 0 {
		t.Fatal("no exchanges attempted")
	}
	if res.Exchanges == 0 {
		t.Fatal("no exchanges accepted — ladder too sparse")
	}
	if res.Exchanges > res.ExchangeAttempts {
		t.Fatal("accepted more exchanges than attempted")
	}
}

func TestTemperingDeterministic(t *testing.T) {
	in := tsplib.Generate("pt-det", 50, tsplib.StyleUniform, 4)
	a := TemperingTSP(in, TemperingOptions{Sweeps: 60, Seed: 5})
	b := TemperingTSP(in, TemperingOptions{Sweeps: 60, Seed: 5})
	if a.Length != b.Length || a.Exchanges != b.Exchanges {
		t.Fatalf("runs differ: %v/%d vs %v/%d", a.Length, a.Exchanges, b.Length, b.Exchanges)
	}
}

func TestTemperingBeatsOrMatchesSingleChain(t *testing.T) {
	// At equal per-chain sweep counts, tempering's exchange moves make it
	// at least as good as a single Metropolis chain on average (the
	// standard parallel-tempering claim). Average over a few instances
	// to avoid flakiness.
	var pt, sa float64
	for seed := uint64(0); seed < 3; seed++ {
		in := tsplib.Generate("pt-vs-sa", 70, tsplib.StyleClustered, 10+seed)
		ptRes := TemperingTSP(in, TemperingOptions{Sweeps: 150, Seed: seed})
		saRes := TSP(in, TSPOptions{Sweeps: 150, Seed: seed})
		pt += ptRes.Length
		sa += saRes.Length
	}
	if pt > sa*1.02 {
		t.Fatalf("tempering total %v worse than single-chain SA %v", pt, sa)
	}
}

func TestTemperingDefaults(t *testing.T) {
	in := tsplib.Generate("pt-def", 40, tsplib.StyleUniform, 6)
	res := TemperingTSP(in, TemperingOptions{Seed: 7})
	if err := res.Tour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
}

func TestTemperingWarmStart(t *testing.T) {
	in := tsplib.Generate("pt-warm", 60, tsplib.StyleUniform, 8)
	warm := TSP(in, TSPOptions{Sweeps: 200, Seed: 9}).Tour
	res := TemperingTSP(in, TemperingOptions{Sweeps: 40, Seed: 10, Initial: warm})
	if res.Length > warm.Length(in)+1e-9 {
		t.Fatalf("warm start regressed: %v > %v", res.Length, warm.Length(in))
	}
}

func BenchmarkTempering100(b *testing.B) {
	in := tsplib.Generate("pt-bench", 100, tsplib.StyleUniform, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TemperingTSP(in, TemperingOptions{Sweeps: 30, Seed: uint64(i)})
	}
}
