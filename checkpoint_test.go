package cimsa_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cimsa"
	"cimsa/internal/checkpoint"
	"cimsa/internal/noise"
)

func ckptOptions(dir string) cimsa.Options {
	return cimsa.Options{
		PMax:         3,
		Seed:         9,
		SkipHardware: true,
		Checkpoint:   cimsa.Checkpoint{Dir: dir},
	}
}

// TestFacadeCheckpointResume interrupts a solve through the facade,
// resumes from the on-disk file, and checks the result is
// bit-identical to the uninterrupted run — the end-to-end contract of
// Options.Checkpoint.
func TestFacadeCheckpointResume(t *testing.T) {
	in := cimsa.GenerateInstance("facade-ckpt", 240, 3)
	want, err := cimsa.Solve(in, ckptOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opt := ckptOptions(dir)
	writes := 0
	var path string
	opt.Checkpoint.OnWrite = func(p string) { writes++; path = p }
	ctx, cancel := context.WithCancel(context.Background())
	events := 0
	opt.Progress = func(cimsa.ProgressEvent) {
		events++
		if events == 4 {
			cancel()
		}
	}
	if _, err := cimsa.SolveContext(ctx, in, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt: got %v", err)
	}
	if writes == 0 || path == "" {
		t.Fatal("no checkpoint was written before the interrupt")
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("checkpoint %q landed outside %q", path, dir)
	}
	// The cancellation flush is waited for, so the file left behind is
	// the flush itself, not an older epoch snapshot.
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Solver == nil || !snap.Solver.Flush {
		t.Fatalf("file after the interrupt is not the cancellation flush: %+v", snap.Solver)
	}

	opt = ckptOptions(dir)
	opt.Checkpoint.Resume = true
	resumed := ""
	opt.Checkpoint.OnResume = func(p string) { resumed = p }
	got, err := cimsa.Solve(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != path {
		t.Fatalf("OnResume saw %q, checkpoint was %q", resumed, path)
	}
	if !reflect.DeepEqual(got.Tour, want.Tour) || got.Length != want.Length || got.Solver != want.Solver {
		t.Fatal("resumed solve differs from uninterrupted solve")
	}
}

// TestFacadeResumeFreshStart: Resume with no file present just runs.
func TestFacadeResumeFreshStart(t *testing.T) {
	in := cimsa.GenerateInstance("facade-ckpt-fresh", 160, 3)
	opt := ckptOptions(t.TempDir())
	opt.Checkpoint.Resume = true
	resumed := false
	opt.Checkpoint.OnResume = func(string) { resumed = true }
	want, err := cimsa.Solve(in, cimsa.Options{PMax: 3, Seed: 9, SkipHardware: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cimsa.Solve(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("OnResume fired with no checkpoint on disk")
	}
	if !reflect.DeepEqual(got.Tour, want.Tour) {
		t.Fatal("checkpointed fresh run differs from plain run")
	}
}

// TestFacadeResumeRejectsCorrupt overwrites the checkpoint with
// garbage: the resume must fail with a diagnostic naming the file, not
// silently anneal from scratch or from bad state.
func TestFacadeResumeRejectsCorrupt(t *testing.T) {
	in := cimsa.GenerateInstance("facade-ckpt-bad", 160, 3)
	dir := t.TempDir()
	opt := ckptOptions(dir)
	var path string
	opt.Checkpoint.OnWrite = func(p string) { path = p }
	if _, err := cimsa.Solve(in, opt); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	opt = ckptOptions(dir)
	opt.Checkpoint.Resume = true
	_, err = cimsa.Solve(in, opt)
	if err == nil {
		t.Fatal("corrupt checkpoint was accepted")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("diagnostic %q does not name the file", err)
	}
}

// TestFacadeResumeRejectsCrossFabric writes a checkpoint under the
// default SRAM fabric, then tries to resume it under MRAM: the
// bit-flip streams differ, so a silent resume would diverge from both
// uninterrupted runs. The resume must fail with an ErrMismatch
// diagnostic naming the fabric, and a same-fabric control must still
// resume cleanly from the identical file.
func TestFacadeResumeRejectsCrossFabric(t *testing.T) {
	in := cimsa.GenerateInstance("facade-ckpt-fabric", 200, 3)
	dir := t.TempDir()
	opt := ckptOptions(dir)
	ctx, cancel := context.WithCancel(context.Background())
	events := 0
	opt.Progress = func(cimsa.ProgressEvent) {
		events++
		if events == 4 {
			cancel()
		}
	}
	if _, err := cimsa.SolveContext(ctx, in, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt: got %v", err)
	}

	cross := ckptOptions(dir)
	cross.Fabric = "mram"
	cross.Checkpoint.Resume = true
	_, err := cimsa.Solve(in, cross)
	if err == nil {
		t.Fatal("checkpoint annealed under sram resumed under mram")
	}
	if !strings.Contains(err.Error(), "fabric") {
		t.Fatalf("diagnostic %q does not name the fabric", err)
	}

	same := ckptOptions(dir)
	same.Checkpoint.Resume = true
	resumed := false
	same.Checkpoint.OnResume = func(string) { resumed = true }
	if _, err := cimsa.Solve(in, same); err != nil {
		t.Fatalf("same-fabric control failed to resume: %v", err)
	}
	if !resumed {
		t.Fatal("same-fabric control did not resume from the checkpoint")
	}
}

// TestFacadeResumeRejectsOtherSolverVersion rewrites an interrupted
// run's checkpoint as if another solver version had annealed it: the
// resume must fail with an ErrMismatch diagnostic naming the solver
// version rather than finish a run that neither version would produce.
func TestFacadeResumeRejectsOtherSolverVersion(t *testing.T) {
	in := cimsa.GenerateInstance("facade-ckpt-solver", 200, 3)
	dir := t.TempDir()
	opt := ckptOptions(dir)
	ctx, cancel := context.WithCancel(context.Background())
	events := 0
	opt.Progress = func(cimsa.ProgressEvent) {
		events++
		if events == 4 {
			cancel()
		}
	}
	var path string
	opt.Checkpoint.OnWrite = func(p string) { path = p }
	if _, err := cimsa.SolveContext(ctx, in, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt: got %v", err)
	}
	s, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.SolverVersion != cimsa.SolverVersion {
		t.Fatalf("checkpoint carries solver version %q, this build is %q", s.SolverVersion, cimsa.SolverVersion)
	}
	s.SolverVersion = "tsp/v0"
	if err := checkpoint.Save(path, s); err != nil {
		t.Fatal(err)
	}
	resume := ckptOptions(dir)
	resume.Checkpoint.Resume = true
	_, err = cimsa.Solve(in, resume)
	if !errors.Is(err, checkpoint.ErrMismatch) || !strings.Contains(err.Error(), "solver version") {
		t.Fatalf("resume across solver versions: got %v", err)
	}
}

// TestFacadeCheckpointCadence: EveryEpochs thins epoch snapshots. The
// background writer may coalesce offered snapshots, so the counts are
// bounds: every=4 offers one snapshot per four of the E =
// levels × epochs write-back epochs and writes at most that many.
func TestFacadeCheckpointCadence(t *testing.T) {
	in := cimsa.GenerateInstance("facade-ckpt-cadence", 160, 3)
	count := func(every int) (writes, epochs int) {
		opt := ckptOptions(t.TempDir())
		opt.Checkpoint.EveryEpochs = every
		opt.Checkpoint.OnWrite = func(string) { writes++ }
		rep, err := cimsa.Solve(in, opt)
		if err != nil {
			t.Fatal(err)
		}
		return writes, rep.Solver.Levels * noise.PaperSchedule().Epochs
	}
	all, _ := count(1)
	thinned, e := count(4)
	if all == 0 || thinned == 0 {
		t.Fatalf("no writes (every=1: %d, every=4: %d)", all, thinned)
	}
	if limit := (e + 3) / 4; thinned > limit {
		t.Fatalf("EveryEpochs=4 wrote %d snapshots over %d epochs, want at most %d", thinned, e, limit)
	}
}

// TestFacadeCheckpointWriteError: a non-empty directory squatting on
// the checkpoint path makes every write's rename fail, and the solve
// must fail with that error rather than finish without a checkpoint.
func TestFacadeCheckpointWriteError(t *testing.T) {
	in := cimsa.GenerateInstance("facade-ckpt-werr", 160, 3)
	dir := t.TempDir()
	opt := ckptOptions(dir)
	path := checkpoint.DefaultPath(dir, in, opt.Seed)
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	writes := 0
	opt.Checkpoint.OnWrite = func(string) { writes++ }
	rep, err := cimsa.Solve(in, opt)
	if err == nil || !strings.Contains(err.Error(), "rename") {
		t.Fatalf("solve over an unwritable checkpoint path: got %v, want the rename error", err)
	}
	if rep != nil || writes != 0 {
		t.Fatalf("failed solve returned a report (%v) or reported %d writes", rep != nil, writes)
	}
}

// TestCheckpointOptionValidation: the facade's single Validate path
// covers the checkpoint fields too.
func TestCheckpointOptionValidation(t *testing.T) {
	bad := []cimsa.Options{
		{Checkpoint: cimsa.Checkpoint{EveryEpochs: -1, Dir: "x"}},
		{Checkpoint: cimsa.Checkpoint{Resume: true}},
		{Checkpoint: cimsa.Checkpoint{EveryEpochs: 2}},
	}
	for i, opt := range bad {
		if err := opt.Validate(); err == nil {
			t.Errorf("case %d: invalid checkpoint options accepted", i)
		}
	}
	ok := cimsa.Options{Checkpoint: cimsa.Checkpoint{Dir: "x", Resume: true, EveryEpochs: 2}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid checkpoint options rejected: %v", err)
	}
}
