// Solve hot-loop benchmarks: sequential vs pooled-parallel full solves
// at ~1k/5k/10k cities, the perf trajectory every PR is measured
// against. Run them with
//
//	go test -bench BenchmarkSolveHotLoop -benchtime 3x .
//
// and regenerate the committed BENCH_solve.json snapshot, on a machine
// whose CPU count is at least GOMAXPROCS, with
//
//	CIMSA_EMIT_BENCH=1 go test -run TestEmitSolveBench -count=1 -timeout 30m .
//
// The pooled and sequential modes produce byte-identical tours (pinned
// by TestWorkerCountDeterminism in internal/clustered); only wall time
// may differ.
package cimsa_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"cimsa"
)

// benchSizes are the hot-loop workload sizes (cities). The largest
// point matches pla85900, the biggest TSPLIB instance the paper's
// scaling argument targets.
var benchSizes = []int{1000, 5000, 10000, 85900}

// benchModes are the execution modes the harness compares. "pooled"
// uses GOMAXPROCS workers; "auto" is Workers=WorkersAuto: the solver
// picks sequential or pooled per level from the instance size, so it
// should track the better of the other two at every size.
var benchModes = []struct {
	name    string
	options cimsa.Options
}{
	{"sequential", cimsa.Options{Seed: 7, SkipHardware: true, Workers: 1}},
	{"pooled", cimsa.Options{Seed: 7, SkipHardware: true, Workers: runtime.GOMAXPROCS(0)}},
	{"auto", cimsa.Options{Seed: 7, SkipHardware: true, Workers: cimsa.WorkersAuto}},
}

func solveOnce(tb testing.TB, in *cimsa.Instance, opt cimsa.Options) {
	tb.Helper()
	rep, err := cimsa.Solve(in, opt)
	if err != nil {
		tb.Fatal(err)
	}
	if rep.Length <= 0 {
		tb.Fatal("no tour")
	}
}

// BenchmarkSolveHotLoop runs every (mode, size) combination as a
// sub-benchmark, e.g. BenchmarkSolveHotLoop/pooled-5000.
func BenchmarkSolveHotLoop(b *testing.B) {
	for _, size := range benchSizes {
		in := cimsa.GenerateInstance(fmt.Sprintf("bench-hot-%d", size), size, 1)
		for _, mode := range benchModes {
			b.Run(fmt.Sprintf("%s-%d", mode.name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					solveOnce(b, in, mode.options)
				}
			})
		}
	}
}

// benchResult is one BENCH_solve.json entry.
type benchResult struct {
	Cities  int     `json:"cities"`
	Mode    string  `json:"mode"`
	Seconds float64 `json:"seconds_per_solve"`
}

type benchFile struct {
	Generated  string        `json:"generated"`
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Note       string        `json:"note"`
	Results    []benchResult `json:"results"`
	// SeedReference pins the pre-worker-pool baseline (per-phase
	// goroutine spawn + WaitGroup, per-cell noise rate evaluation) so
	// the speedup is visible without checking out the old tree.
	SeedReference seedReference `json:"seed_reference"`
}

// seedReference was measured once on this hardware at GOMAXPROCS=4
// from the tree before the worker-pool rewrite (best of 3 solves of
// the same 5000-city instance). It is a historical constant, not
// re-measured by the emitter.
type seedReference struct {
	Cities            int     `json:"cities"`
	SequentialSeconds float64 `json:"sequential_seconds_per_solve"`
	ParallelSeconds   float64 `json:"parallel_seconds_per_solve"`
	Note              string  `json:"note"`
}

// TestEmitSolveBench measures the hot loop at every (mode, size) point
// and writes BENCH_solve.json in the repo root (or the path named by
// CIMSA_BENCH_OUT, so CI can measure without dirtying the checkout).
// The committed file is the perf record for the PR trail; the CI
// bench-gate job (cmd/benchgate) compares a fresh measurement against
// it and fails on pooled-dispatch regressions. Only runs when
// CIMSA_EMIT_BENCH=1 is set.
func TestEmitSolveBench(t *testing.T) {
	if os.Getenv("CIMSA_EMIT_BENCH") == "" {
		t.Skip("set CIMSA_EMIT_BENCH=1 to measure and write BENCH_solve.json")
	}
	const reps = 3
	out := benchFile{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note:       "best of " + fmt.Sprint(reps) + " full solves per point; pooled ≡ sequential tours byte-for-byte",
		SeedReference: seedReference{
			Cities:            5000,
			SequentialSeconds: 0.382,
			ParallelSeconds:   0.444,
			Note:              "pre-pool baseline (goroutine-per-phase), GOMAXPROCS=4",
		},
	}
	for _, size := range benchSizes {
		in := cimsa.GenerateInstance(fmt.Sprintf("bench-hot-%d", size), size, 1)
		for _, mode := range benchModes {
			best := time.Duration(1<<63 - 1)
			for r := 0; r < reps; r++ {
				start := time.Now()
				solveOnce(t, in, mode.options)
				if d := time.Since(start); d < best {
					best = d
				}
			}
			out.Results = append(out.Results, benchResult{
				Cities: size, Mode: mode.name, Seconds: best.Seconds(),
			})
			t.Logf("%s-%d: %v", mode.name, size, best)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := os.Getenv("CIMSA_BENCH_OUT")
	if path == "" {
		path = "BENCH_solve.json"
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
