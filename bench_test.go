// Benchmarks: one per table and figure of the paper's evaluation
// (DESIGN.md maps each to its experiment runner). Each benchmark
// regenerates the corresponding artifact end-to-end; solved workloads
// run at Scale 0.1 so the whole suite completes in minutes — run
// cmd/cimexperiments for the full-size numbers recorded in
// EXPERIMENTS.md.
package cimsa_test

import (
	"io"
	"testing"

	"cimsa"
	"cimsa/internal/experiments"
)

// benchCfg is the scaled configuration shared by the solve-heavy
// benchmarks.
func benchCfg(seed uint64) experiments.Config {
	return experiments.Config{Seed: seed, Scale: 0.1, MCSamples: 150}
}

// BenchmarkFig1MemoryCapacity regenerates Fig. 1 (memory capacity vs
// TSP scale for the O(N⁴), O(N²) and O(N) designs).
func BenchmarkFig1MemoryCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig1()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable1ClusterStrategy regenerates Table I (cluster size and
// strategy exploration on pcb3038 and rl5915).
func BenchmarkTable1ClusterStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchCfg(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkFig6ErrorRate regenerates Fig. 6(b) (Monte Carlo pseudo-read
// error rate vs V_DD with the bit-line capacitance comparison).
func BenchmarkFig6ErrorRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchCfg(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

// fig7 runs the Fig. 7 panel once per benchmark iteration on a two-
// dataset subset and checks the panel named by sel is populated.
func fig7(b *testing.B, sel func(experiments.Fig7Point) float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(benchCfg(uint64(i)), []string{"pcb3038", "rl5915"})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			for _, p := range r.Points {
				if sel(p) <= 0 {
					b.Fatalf("%s p=%d: empty metric", r.Dataset, p.PMax)
				}
			}
		}
	}
}

// BenchmarkFig7aOptimalRatio regenerates Fig. 7(a): solution quality per
// dataset and p_max with the arbitrary-clustering baseline.
func BenchmarkFig7aOptimalRatio(b *testing.B) {
	fig7(b, func(p experiments.Fig7Point) float64 { return p.OptimalRatio })
}

// BenchmarkFig7bArea regenerates Fig. 7(b): chip area per dataset/p_max.
func BenchmarkFig7bArea(b *testing.B) {
	fig7(b, func(p experiments.Fig7Point) float64 { return p.AreaMM2 })
}

// BenchmarkFig7cLatency regenerates Fig. 7(c): latency with the
// read/write breakdown.
func BenchmarkFig7cLatency(b *testing.B) {
	fig7(b, func(p experiments.Fig7Point) float64 { return p.ComputeSeconds + p.WriteSeconds })
}

// BenchmarkFig7dEnergy regenerates Fig. 7(d): dynamic energy with the
// read/write breakdown.
func BenchmarkFig7dEnergy(b *testing.B) {
	fig7(b, func(p experiments.Fig7Point) float64 { return p.ReadEnergyJ + p.WriteEnergyJ })
}

// BenchmarkTable2ArrayGeometry regenerates Table II (window size, array
// size and array area per p_max).
func BenchmarkTable2ArrayGeometry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("expected 3 design points")
		}
	}
}

// BenchmarkTable3Comparison regenerates Table III (comparison with SOTA
// scalable annealers, physical and functionally normalized).
func BenchmarkTable3Comparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3()
		if err != nil {
			b.Fatal(err)
		}
		area, power := experiments.Table3Improvement(rows)
		if area < 1e12 || power < 1e12 {
			b.Fatalf("normalized improvements too small: %g / %g", area, power)
		}
	}
}

// BenchmarkSpeedupVsCPU regenerates the §VI convergence-speedup
// comparison against the Concorde CPU baseline.
func BenchmarkSpeedupVsCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Speedup(benchCfg(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Speedup < 1e9 {
				b.Fatalf("%s speedup %g below 1e9", r.Dataset, r.Speedup)
			}
		}
	}
}

// BenchmarkAblationNoiseSource compares the randomness sources
// (noisy-CIM weights vs Metropolis vs greedy vs noisy spins).
func BenchmarkAblationNoiseSource(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationModes(benchCfg(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSchedule compares the (V_DD, #LSB) annealing schedule
// against fixed-noise variants.
func BenchmarkAblationSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSchedule(benchCfg(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolvePCB3038Full runs the complete annealer on the full-size
// pcb3038 workload (the paper's smallest evaluation instance).
func BenchmarkSolvePCB3038Full(b *testing.B) {
	in, err := cimsa.LoadNamed("pcb3038")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := cimsa.Solve(in, cimsa.Options{PMax: 3, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Length <= 0 {
			b.Fatal("no tour")
		}
	}
}

// BenchmarkRenderAll exercises every renderer (cheap; guards against
// formatting regressions in the report path).
func BenchmarkRenderAll(b *testing.B) {
	rows2, err := experiments.Table2()
	if err != nil {
		b.Fatal(err)
	}
	rows3, err := experiments.Table3()
	if err != nil {
		b.Fatal(err)
	}
	fig1 := experiments.Fig1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RenderFig1(io.Discard, fig1)
		experiments.RenderTable2(io.Discard, rows2)
		experiments.RenderTable3(io.Discard, rows3)
	}
}
