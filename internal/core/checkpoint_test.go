package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cimsa/internal/checkpoint"
	"cimsa/internal/clustered"
	"cimsa/internal/tsplib"
)

func ckptInstance() *tsplib.Instance {
	return tsplib.Generate("core-ckpt", 220, tsplib.StyleClustered, 17)
}

func ckptConfig() Config {
	return Config{PMax: 3, Seed: 11, Restarts: 3, SkipHardwareReport: true}
}

// errStop kills a solve from inside the checkpoint hook, standing in
// for a crash: the snapshot saved before the error is all that
// survives.
var errStop = errors.New("stop here")

// runUntil solves and captures checkpoint snapshots, aborting after
// the kill-th write (kill < 0: run to completion).
func runUntil(t *testing.T, cfg Config, in *tsplib.Instance, kill int) (*Report, *checkpoint.Snapshot, int) {
	t.Helper()
	var last *checkpoint.Snapshot
	writes := 0
	cfg.Checkpoint = func(s *checkpoint.Snapshot) error {
		last = s
		writes++
		if kill >= 0 && writes > kill {
			return errStop
		}
		return nil
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Solve(in)
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

// TestRestartResumeBitIdentical kills a multi-restart solve at various
// checkpoint writes — mid-replica epochs and restart boundaries alike —
// resumes from the surviving snapshot, and demands the final report be
// bit-identical to the uninterrupted run.
func TestRestartResumeBitIdentical(t *testing.T) {
	in := ckptInstance()
	want, _, total := runUntil(t, ckptConfig(), in, -1)

	// One epoch snapshot per level per epoch plus two restart
	// boundaries; probe a spread of kill points including the
	// boundaries (every 9th write on the paper schedule's 8 epochs).
	for kill := 1; kill < total; kill += 7 {
		_, snap, _ := runUntil(t, ckptConfig(), in, kill)
		if snap == nil {
			t.Fatalf("kill %d: no snapshot captured", kill)
		}
		cfg := ckptConfig()
		cfg.Resume = snap
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Solve(in)
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
	base := ckptConfig()
	base.Restarts = 2
	base.Workers = 1
	want, _, _ := runUntil(t, base, in, -1)

	for _, killW := range []int{1, 4} {
		for _, resumeW := range []int{1, 4} {
			cfg := base
			cfg.Workers = killW
			_, snap, _ := runUntil(t, cfg, in, 5)
			cfg = base
			cfg.Workers = resumeW
			cfg.Resume = snap
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.Solve(in)
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
	cfg := ckptConfig()
	cfg.Checkpoint = func(s *checkpoint.Snapshot) error {
		if s.Solver == nil {
			boundaries = append(boundaries, s)
		}
		return nil
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Solve(in); err != nil {
		t.Fatal(err)
	}
	if len(boundaries) != 2 {
		t.Fatalf("3 restarts should write 2 boundary snapshots, got %d", len(boundaries))
	}
	for i, s := range boundaries {
		if s.Restart != i+1 {
			t.Fatalf("boundary %d carries restart index %d", i, s.Restart)
		}
		if err := s.Verify(in, a.CheckpointExpect()); err != nil {
			t.Fatalf("boundary %d does not verify: %v", i, err)
		}
	}
}

// TestResumeRejectsMismatchedConfig runs Verify through core: a
// snapshot from one design point must not resume another.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	in := ckptInstance()
	_, snap, _ := runUntil(t, ckptConfig(), in, 3)
	tweaks := map[string]func(*Config, **tsplib.Instance){
		"seed":     func(c *Config, _ **tsplib.Instance) { c.Seed++ },
		"restarts": func(c *Config, _ **tsplib.Instance) { c.Restarts++ },
		"pmax":     func(c *Config, _ **tsplib.Instance) { c.PMax = 4 },
		"instance": func(_ *Config, in2 **tsplib.Instance) {
			*in2 = tsplib.Generate("core-ckpt", 220, tsplib.StyleClustered, 18)
		},
	}
	for name, tweak := range tweaks {
		cfg := ckptConfig()
		target := in
		tweak(&cfg, &target)
		cfg.Resume = snap
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Solve(target); !errors.Is(err, checkpoint.ErrMismatch) {
			t.Fatalf("%s: mismatched resume got %v, want ErrMismatch", name, err)
		}
	}
}

// TestCheckpointHookErrorAborts makes sure a failing writer (disk
// full, say) fails the solve instead of being swallowed.
func TestCheckpointHookErrorAborts(t *testing.T) {
	in := ckptInstance()
	boom := errors.New("disk full")
	cfg := ckptConfig()
	cfg.Restarts = 1
	cfg.Checkpoint = func(*checkpoint.Snapshot) error { return boom }
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Solve(in); !errors.Is(err, boom) {
		t.Fatalf("hook error not surfaced: %v", err)
	}
}

// TestCheckpointCancelFlush cancels mid-solve and checks the last
// snapshot is a resumable flush that completes to the uninterrupted
// result.
func TestCheckpointCancelFlush(t *testing.T) {
	in := ckptInstance()
	base := ckptConfig()
	base.Restarts = 1
	want, _, _ := runUntil(t, base, in, -1)

	ctx, cancel := context.WithCancel(context.Background())
	events := 0
	var last *checkpoint.Snapshot
	cfg := base
	cfg.Progress = func(ev clustered.ProgressEvent) {
		events++
		if events == 3 {
			cancel()
		}
	}
	cfg.Checkpoint = func(s *checkpoint.Snapshot) error {
		last = s
		return nil
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SolveContext(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel: got %v", err)
	}
	if last == nil || last.Solver == nil || !last.Solver.Flush {
		t.Fatalf("cancel did not flush a mid-epoch snapshot: %+v", last)
	}
	cfg = base
	cfg.Resume = last
	a, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tour, want.Tour) || got.Solver != want.Solver {
		t.Fatal("resume from cancellation flush differs from uninterrupted run")
	}
}
