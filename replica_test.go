package cimsa

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cimsa/internal/checkpoint"
	"cimsa/internal/cluster"
	"cimsa/internal/clustered"
	"cimsa/internal/noise"
	"cimsa/internal/tsplib"
)

// These tests drive the replica loop directly, with the snapshot sink
// held in memory instead of behind a checkpoint file.

func ckptInstance() *Instance {
	return tsplib.Generate("replica-ckpt", 220, tsplib.StyleClustered, 17)
}

func ckptOptions() Options {
	return Options{PMax: 3, Seed: 11, Restarts: 3, SkipHardware: true}
}

// newRun resolves opt and installs sink and resume on the result.
func newRun(t *testing.T, opt Options, sink func(*checkpoint.Snapshot) error, resume *checkpoint.Snapshot) *run {
	t.Helper()
	r, err := opt.resolve()
	if err != nil {
		t.Fatal(err)
	}
	r.sink, r.resume = sink, resume
	return r
}

// errStop kills a solve from inside the snapshot sink, standing in for
// a crash: the snapshot saved before the error is all that survives.
var errStop = errors.New("stop here")

// runUntil solves and captures snapshots, aborting after the kill-th
// write (kill < 0: run to completion).
func runUntil(t *testing.T, opt Options, in *Instance, kill int) (*Report, *checkpoint.Snapshot, int) {
	t.Helper()
	var last *checkpoint.Snapshot
	writes := 0
	r := newRun(t, opt, func(s *checkpoint.Snapshot) error {
		last = s
		writes++
		if kill >= 0 && writes > kill {
			return errStop
		}
		return nil
	}, nil)
	rep, err := r.solve(context.Background(), in)
	if kill >= 0 {
		if !errors.Is(err, errStop) {
			t.Fatalf("kill after %d writes: got %v", kill, err)
		}
		return nil, last, writes
	}
	if err != nil {
		t.Fatal(err)
	}
	return rep, last, writes
}

// resumeFrom finishes a solve from snap.
func resumeFrom(t *testing.T, opt Options, in *Instance, snap *checkpoint.Snapshot) (*Report, error) {
	t.Helper()
	return newRun(t, opt, nil, snap).solve(context.Background(), in)
}

// TestResolveDefaults pins the design point the zero Options resolve
// to: semi-flexible clustering with PMax 3, one replica, the noisy-CIM
// mode and the paper's SRAM fabric.
func TestResolveDefaults(t *testing.T) {
	r, err := Options{}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.strategy != (cluster.Strategy{Kind: cluster.SemiFlex, P: 3}) {
		t.Fatalf("default strategy %v", r.strategy)
	}
	if r.restarts != 1 || r.mode != clustered.ModeNoisyCIM || r.fabric.Kind() != noise.KindSRAM {
		t.Fatalf("defaults: restarts %d, mode %v, fabric %s", r.restarts, r.mode, r.fabric.Kind())
	}
	if got := r.expect().Schedule.TotalIters(); got != 400 {
		t.Fatalf("default schedule iters %d", got)
	}
}

// TestRestartResumeBitIdentical kills a multi-restart solve at various
// snapshot writes — mid-replica epochs and restart boundaries alike —
// resumes from the surviving snapshot, and demands the final report be
// bit-identical to the uninterrupted run.
func TestRestartResumeBitIdentical(t *testing.T) {
	in := ckptInstance()
	want, _, total := runUntil(t, ckptOptions(), in, -1)

	// One epoch snapshot per level per epoch plus two restart
	// boundaries; probe a spread of kill points including the
	// boundaries (every 9th write on the paper schedule's 8 epochs).
	for kill := 1; kill < total; kill += 7 {
		_, snap, _ := runUntil(t, ckptOptions(), in, kill)
		if snap == nil {
			t.Fatalf("kill %d: no snapshot captured", kill)
		}
		got, err := resumeFrom(t, ckptOptions(), in, snap)
		if err != nil {
			t.Fatalf("kill %d: resume failed: %v", kill, err)
		}
		if !reflect.DeepEqual(got.Tour, want.Tour) || got.Length != want.Length {
			t.Fatalf("kill %d: resumed tour differs from uninterrupted run", kill)
		}
		if got.Solver != want.Solver {
			t.Fatalf("kill %d: resumed stats differ:\n got %+v\nwant %+v", kill, got.Solver, want.Solver)
		}
	}
}

// TestResumeAcrossWorkerCounts kills a parallel solve and resumes it
// under different worker counts: the paper's chromatic update order is
// fixed, so every (kill workers, resume workers) pair must agree with
// the sequential uninterrupted run.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	in := ckptInstance()
	base := ckptOptions()
	base.Restarts = 2
	base.Workers = 1
	want, _, _ := runUntil(t, base, in, -1)

	for _, killW := range []int{1, 4} {
		for _, resumeW := range []int{1, 4} {
			opt := base
			opt.Workers = killW
			_, snap, _ := runUntil(t, opt, in, 5)
			opt.Workers = resumeW
			got, err := resumeFrom(t, opt, in, snap)
			if err != nil {
				t.Fatalf("kill@%dw resume@%dw: %v", killW, resumeW, err)
			}
			if !reflect.DeepEqual(got.Tour, want.Tour) || got.Solver != want.Solver {
				t.Fatalf("kill@%dw resume@%dw: result differs from sequential run", killW, resumeW)
			}
		}
	}
}

// TestRestartBoundarySnapshots checks the inter-replica snapshots: no
// solver state, next replica's index, a valid best tour, and none
// after the final replica (a finished run needs no checkpoint).
func TestRestartBoundarySnapshots(t *testing.T) {
	in := ckptInstance()
	var boundaries []*checkpoint.Snapshot
	r := newRun(t, ckptOptions(), func(s *checkpoint.Snapshot) error {
		if s.Solver == nil {
			boundaries = append(boundaries, s)
		}
		return nil
	}, nil)
	if _, err := r.solve(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	if len(boundaries) != 2 {
		t.Fatalf("3 restarts should write 2 boundary snapshots, got %d", len(boundaries))
	}
	for i, s := range boundaries {
		if s.Restart != i+1 {
			t.Fatalf("boundary %d carries restart index %d", i, s.Restart)
		}
		if err := s.Verify(in, r.expect()); err != nil {
			t.Fatalf("boundary %d does not verify: %v", i, err)
		}
	}
}

// TestResumeRejectsMismatchedConfig runs Verify through the replica
// loop: a snapshot from one design point must not resume another.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	in := ckptInstance()
	_, snap, _ := runUntil(t, ckptOptions(), in, 3)
	tweaks := map[string]func(*Options, **Instance){
		"seed":     func(o *Options, _ **Instance) { o.Seed++ },
		"restarts": func(o *Options, _ **Instance) { o.Restarts++ },
		"pmax":     func(o *Options, _ **Instance) { o.PMax = 4 },
		"instance": func(_ *Options, in2 **Instance) {
			*in2 = tsplib.Generate("replica-ckpt", 220, tsplib.StyleClustered, 18)
		},
	}
	for name, tweak := range tweaks {
		opt := ckptOptions()
		target := in
		tweak(&opt, &target)
		if _, err := resumeFrom(t, opt, target, snap); !errors.Is(err, checkpoint.ErrMismatch) {
			t.Fatalf("%s: mismatched resume got %v, want ErrMismatch", name, err)
		}
	}
}

// TestCheckpointHookErrorAborts makes sure a failing writer (disk
// full, say) fails the solve instead of being swallowed.
func TestCheckpointHookErrorAborts(t *testing.T) {
	in := ckptInstance()
	boom := errors.New("disk full")
	opt := ckptOptions()
	opt.Restarts = 1
	r := newRun(t, opt, func(*checkpoint.Snapshot) error { return boom }, nil)
	if _, err := r.solve(context.Background(), in); !errors.Is(err, boom) {
		t.Fatalf("hook error not surfaced: %v", err)
	}
}

// TestCheckpointCancelFlush cancels mid-solve and checks the last
// snapshot is a resumable flush that completes to the uninterrupted
// result.
func TestCheckpointCancelFlush(t *testing.T) {
	in := ckptInstance()
	base := ckptOptions()
	base.Restarts = 1
	want, _, _ := runUntil(t, base, in, -1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	var last *checkpoint.Snapshot
	opt := base
	opt.Progress = func(ev ProgressEvent) {
		events++
		if events == 3 {
			cancel()
		}
	}
	r := newRun(t, opt, func(s *checkpoint.Snapshot) error {
		last = s
		return nil
	}, nil)
	if _, err := r.solve(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel: got %v", err)
	}
	if last == nil || last.Solver == nil || !last.Solver.Flush {
		t.Fatalf("cancel did not flush a mid-epoch snapshot: %+v", last)
	}
	got, err := resumeFrom(t, base, in, last)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tour, want.Tour) || got.Solver != want.Solver {
		t.Fatal("resume from cancellation flush differs from uninterrupted run")
	}
}

// TestRestartStatsInvariance is the aggregation contract: a Restarts=R
// solve must report exactly the sum of R independently-run replicas'
// work counters — every counter, not just swap trials. The energy/PPA
// model consumes these numbers; any counter sourced from "whichever
// replica won" under-counts work by ~R×.
func TestRestartStatsInvariance(t *testing.T) {
	in := tsplib.Generate("replica-restart-inv", 220, tsplib.StyleUniform, 9)
	const restarts = 3
	const seed = 5
	rep, err := Solve(in, Options{Seed: seed, Restarts: restarts, SkipHardware: true})
	if err != nil {
		t.Fatal(err)
	}
	// Re-run each replica on its own: seed Seed+r, and the default
	// fabric clustered derives from that seed.
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

// Multi-restart progress events carry the replica index, one full
// event sequence per replica in order.
func TestProgressCarriesRestartIndex(t *testing.T) {
	in := tsplib.Generate("replica-progress", 200, tsplib.StyleUniform, 6)
	var restarts []int
	_, err := Solve(in, Options{
		Seed:         3,
		Restarts:     3,
		SkipHardware: true,
		Progress: func(ev ProgressEvent) {
			restarts = append(restarts, ev.Restart)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	last := 0
	for i, r := range restarts {
		if r < last {
			t.Fatalf("event %d goes back to restart %d after %d", i, r, last)
		}
		last = r
		seen[r] = true
	}
	for rep := 0; rep < 3; rep++ {
		if !seen[rep] {
			t.Fatalf("no events for restart %d", rep)
		}
	}
}

// Cancellation between restarts stops the remaining replicas.
func TestSolveContextCancelsAcrossRestarts(t *testing.T) {
	in := tsplib.Generate("replica-cancel", 200, tsplib.StyleUniform, 7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := SolveContext(ctx, in, Options{
		Seed:         3,
		Restarts:     50,
		SkipHardware: true,
		Progress: func(ev ProgressEvent) {
			if ev.Restart == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// solveRun resolves opt and runs the replica loop once, with no
// snapshot sink.
func solveRun(t *testing.T, opt Options, in *Instance) *Report {
	t.Helper()
	rep, err := newRun(t, opt, nil, nil).solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestResolveRejectsBadConfig(t *testing.T) {
	for _, pmax := range []int{1, 99} {
		if _, err := (Options{PMax: pmax}).resolve(); err == nil {
			t.Fatalf("PMax=%d accepted", pmax)
		}
	}
}

func TestSolveEndToEnd(t *testing.T) {
	in := tsplib.Generate("replica-e2e", 300, tsplib.StyleClustered, 1)
	rep := solveRun(t, Options{PMax: 3, Seed: 1}, in)
	if err := rep.Tour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	if rep.Instance != "replica-e2e" || rep.N != 300 {
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
	in := tsplib.Generate("replica-ref", 250, tsplib.StyleUniform, 2)
	rep, err := Solve(in, Options{Seed: 2, Reference: true})
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
	rep, err := SolveName("pcb442", Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 442 {
		t.Fatalf("solved %d cities", rep.N)
	}
	if _, err := SolveName("doesnotexist", Options{Seed: 3}); err == nil {
		t.Fatal("unknown instance accepted")
	}
}

func TestSkipHardwareReport(t *testing.T) {
	in := tsplib.Generate("replica-skip", 100, tsplib.StyleUniform, 4)
	rep := solveRun(t, Options{SkipHardware: true, Seed: 4}, in)
	if rep.Chip.AreaMM2 != 0 {
		t.Fatal("hardware report produced despite skip")
	}
}

func TestModesThroughReplicaLoop(t *testing.T) {
	in := tsplib.Generate("replica-modes", 150, tsplib.StylePCB, 6)
	for _, m := range []clustered.Mode{clustered.ModeNoisyCIM, clustered.ModeMetropolis, clustered.ModeGreedy} {
		r := newRun(t, Options{Mode: m.String(), Seed: 6}, nil, nil)
		if r.mode != m {
			t.Fatalf("mode %q resolved to %v", m, r.mode)
		}
		if _, err := r.solve(context.Background(), in); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestRestartsKeepBest(t *testing.T) {
	in := tsplib.Generate("replica-restart", 250, tsplib.StyleClustered, 7)
	one := solveRun(t, Options{Seed: 10}, in)
	best := solveRun(t, Options{Seed: 10, Restarts: 4}, in)
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

func TestParallelThroughReplicaLoop(t *testing.T) {
	in := tsplib.Generate("replica-par", 300, tsplib.StyleUniform, 8)
	a := solveRun(t, Options{Seed: 11, Workers: 1}, in)
	b := solveRun(t, Options{Seed: 11, Workers: 2}, in)
	if a.Length != b.Length {
		t.Fatalf("parallel solve differs: %v vs %v", a.Length, b.Length)
	}
}
