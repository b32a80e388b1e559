package core

import (
	"testing"

	"cimsa/internal/cluster"
	"cimsa/internal/clustered"
	"cimsa/internal/tsplib"
)

func TestNewDefaults(t *testing.T) {
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.cfg.Strategy.Kind != cluster.SemiFlex || a.cfg.Strategy.P != 3 {
		t.Fatalf("default strategy %v", a.cfg.Strategy)
	}
	if a.cfg.Schedule.TotalIters() != 400 {
		t.Fatalf("default schedule iters %d", a.cfg.Schedule.TotalIters())
	}
	if a.cfg.Tech.Name == "" {
		t.Fatal("default tech missing")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{PMax: 1}); err == nil {
		t.Fatal("PMax=1 accepted")
	}
	if _, err := New(Config{PMax: 99}); err == nil {
		t.Fatal("PMax=99 accepted")
	}
	if _, err := New(Config{Strategy: cluster.Strategy{Kind: cluster.Fixed, P: 1}}); err == nil {
		t.Fatal("bad strategy accepted")
	}
}

func TestSolveEndToEnd(t *testing.T) {
	a, err := New(Config{PMax: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := tsplib.Generate("core-e2e", 300, tsplib.StyleClustered, 1)
	rep, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Tour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	if rep.Instance != "core-e2e" || rep.N != 300 {
		t.Fatalf("report identity wrong: %s/%d", rep.Instance, rep.N)
	}
	if rep.Chip.AreaMM2 <= 0 || rep.Chip.PowerMW <= 0 {
		t.Fatal("hardware report missing")
	}
	if rep.Chip.LatencySeconds <= 0 {
		t.Fatal("latency missing")
	}
}

func TestSolveWithReference(t *testing.T) {
	a, err := New(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := tsplib.Generate("core-ref", 250, tsplib.StyleUniform, 2)
	rep, err := a.SolveWithReference(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReferenceLength <= 0 {
		t.Fatal("reference missing")
	}
	if rep.OptimalRatio < 1.0 || rep.OptimalRatio > 2.0 {
		t.Fatalf("optimal ratio %v implausible", rep.OptimalRatio)
	}
}

func TestSolveNameFromRegistry(t *testing.T) {
	a, err := New(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.SolveName("pcb442")
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 442 {
		t.Fatalf("solved %d cities", rep.N)
	}
	if _, err := a.SolveName("doesnotexist"); err == nil {
		t.Fatal("unknown instance accepted")
	}
}

func TestSkipHardwareReport(t *testing.T) {
	a, err := New(Config{SkipHardwareReport: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := tsplib.Generate("core-skip", 100, tsplib.StyleUniform, 4)
	rep, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chip.AreaMM2 != 0 {
		t.Fatal("hardware report produced despite skip")
	}
}

func TestNonSemiFlexSkipsChip(t *testing.T) {
	a, err := New(Config{Strategy: cluster.Strategy{Kind: cluster.Arbitrary}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	in := tsplib.Generate("core-arb", 120, tsplib.StyleUniform, 5)
	rep, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chip.AreaMM2 != 0 {
		t.Fatal("arbitrary strategy is not hardware-realizable but got a chip report")
	}
}

func TestModesThroughCore(t *testing.T) {
	in := tsplib.Generate("core-modes", 150, tsplib.StylePCB, 6)
	for _, m := range []clustered.Mode{clustered.ModeNoisyCIM, clustered.ModeMetropolis, clustered.ModeGreedy} {
		a, err := New(Config{Mode: m, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Solve(in); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestSolveRejectsInvalidInstance(t *testing.T) {
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := &tsplib.Instance{Name: "bad"}
	if _, err := a.Solve(bad); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

func TestRestartsKeepBest(t *testing.T) {
	in := tsplib.Generate("core-restart", 250, tsplib.StyleClustered, 7)
	single, err := New(Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := New(Config{Seed: 10, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	one, err := single.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	best, err := multi.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if best.Length > one.Length {
		t.Fatalf("best-of-4 (%v) worse than single run (%v)", best.Length, one.Length)
	}
	if err := best.Tour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	// Work accounting accumulates across replicas.
	if best.Solver.Proposed <= one.Solver.Proposed {
		t.Fatalf("restart stats not accumulated: %d <= %d", best.Solver.Proposed, one.Solver.Proposed)
	}
}

// TestRestartStatsInvariance is the aggregation contract: a Restarts=R
// solve must report exactly the sum of R independently-run replicas'
// work counters — every counter, not just swap trials. The energy/PPA
// model consumes these numbers; any counter sourced from "whichever
// replica won" under-counts work by ~R×.
func TestRestartStatsInvariance(t *testing.T) {
	in := tsplib.Generate("core-restart-inv", 220, tsplib.StyleUniform, 9)
	const restarts = 3
	const seed = 5
	a, err := New(Config{Seed: seed, Restarts: restarts, SkipHardwareReport: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	// Re-run each replica individually with the same options core uses:
	// seed Seed+rep, and the default fabric derived from that seed.
	var want clustered.Stats
	for r := uint64(0); r < restarts; r++ {
		res, err := clustered.Solve(in, clustered.Options{
			Strategy: cluster.Strategy{Kind: cluster.SemiFlex, P: 3},
			Seed:     seed + r,
		})
		if err != nil {
			t.Fatal(err)
		}
		want.Add(res.Stats)
	}
	if rep.Solver != want {
		t.Fatalf("aggregate stats != sum of replicas:\n got %+v\nwant %+v", rep.Solver, want)
	}
}

func TestParallelThroughCore(t *testing.T) {
	in := tsplib.Generate("core-par", 300, tsplib.StyleUniform, 8)
	seq, err := New(Config{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(Config{Seed: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := seq.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if a.Length != b.Length {
		t.Fatalf("parallel core solve differs: %v vs %v", a.Length, b.Length)
	}
}
