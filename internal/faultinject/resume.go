package faultinject

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"cimsa"
	"cimsa/internal/checkpoint"
	"cimsa/internal/rng"
)

// ResumeOpKind enumerates the kill-and-resume faults a resume schedule
// can script against the checkpoint/restore path. Where the serve
// schedules attack the scheduler's accounting, these attack the solver's
// durability claim: kill a solve at a scripted point, tamper with (or
// around) the on-disk snapshot, resume, and require the final answer to
// be bit-identical to a run that was never interrupted.
type ResumeOpKind int

const (
	// RKill cancels the solve at a scripted progress event. Cancellation
	// flushes a mid-epoch snapshot, so this is the "process told to die,
	// managed to save state" kill. The next leg resumes from it.
	RKill ResumeOpKind = iota
	// RCorrupt flips one byte of the checkpoint and proves the next
	// resume rejects it with a diagnostic naming the file — never
	// silently annealing from scratch or from bad state — then restores
	// the pristine bytes.
	RCorrupt
	// RStale swaps the current checkpoint for an earlier snapshot of the
	// same run (the "process died before its latest write was durable"
	// kill). Resuming replays more of the trajectory but, because every
	// snapshot is a pure function of (instance, options, epoch), must
	// still converge to the identical final tour.
	RStale
	// RTorn drops garbage temp-file debris next to the checkpoint — the
	// residue of a crash mid-atomic-write. Load reads only the final
	// path, so resume must ignore it.
	RTorn
)

func (k ResumeOpKind) String() string {
	switch k {
	case RKill:
		return "kill"
	case RCorrupt:
		return "corrupt"
	case RStale:
		return "stale-swap"
	case RTorn:
		return "torn-tmp"
	}
	return fmt.Sprintf("resume-op(%d)", int(k))
}

// ResumeOp is one scripted fault. Arg selects the kill epoch, corrupted
// byte, or stashed snapshot (modulo whatever exists when the op runs).
type ResumeOp struct {
	Kind ResumeOpKind
	Arg  int
}

// ResumeSchedule is a fully seeded kill-and-resume script: instance,
// solver options and the fault sequence all derive from Seed, so a
// failure replays by seed alone (FAULTINJECT_RESUME_SEEDS=<seed>).
type ResumeSchedule struct {
	Seed       uint64
	N          int    // instance size
	InstSeed   uint64 // instance generator seed
	SolverSeed uint64
	Ops        []ResumeOp
	// Workers is the worker-pool size per leg (one more leg than there
	// are RKill ops: each kill starts a new leg, plus the final run to
	// completion). Varying it across legs pins the promise that resume
	// is bit-identical at every worker count.
	Workers []int
}

// GenResumeSchedule expands a seed into a schedule: one to three kills
// at scripted progress events, with tamper ops (corrupt, stale-swap,
// torn-tmp) interleaved after the first kill, and a different worker
// count for every leg.
func GenResumeSchedule(seed uint64) ResumeSchedule {
	r := rng.New(seed)
	sc := ResumeSchedule{
		Seed:       seed,
		N:          160 + 40*int(r.Intn(4)),
		InstSeed:   1 + r.Uint64()%64,
		SolverSeed: 1 + r.Uint64()%1024,
	}
	kills := 1 + int(r.Intn(3))
	for k := 0; k < kills; k++ {
		sc.Ops = append(sc.Ops, ResumeOp{Kind: RKill, Arg: 2 + int(r.Intn(5))})
		// After each kill the file exists, so tamper ops are armed.
		for _, tk := range []ResumeOpKind{RTorn, RCorrupt, RStale} {
			if r.Intn(3) == 0 {
				sc.Ops = append(sc.Ops, ResumeOp{Kind: tk, Arg: int(r.Uint64() & 0xffff)})
			}
		}
	}
	for leg := 0; leg <= kills; leg++ {
		sc.Workers = append(sc.Workers, 1+int(r.Intn(4)))
	}
	return sc
}

// resumeRun drives one schedule against the real facade.
type resumeRun struct {
	t     *testing.T
	sc    ResumeSchedule
	in    *cimsa.Instance
	dir   string
	path  string   // checkpoint file, learned from the first OnWrite
	stash [][]byte // snapshot bytes captured at each write, oldest first
	leg   int      // index into sc.Workers
	done  *cimsa.Report
	opLog []string
}

func (rr *resumeRun) fatalf(format string, args ...any) {
	rr.t.Helper()
	rr.t.Fatalf("[resume seed %d] %s\nops:\n  %s",
		rr.sc.Seed, fmt.Sprintf(format, args...), joinLines(rr.opLog))
}

func (rr *resumeRun) logf(format string, args ...any) {
	rr.opLog = append(rr.opLog, fmt.Sprintf(format, args...))
}

// options builds one leg's solver options. Resume is always on — legs
// before the first checkpoint write simply start fresh, like a service
// booting with an empty state dir.
func (rr *resumeRun) options(workers int) cimsa.Options {
	return cimsa.Options{
		PMax:         3,
		Seed:         rr.sc.SolverSeed,
		Workers:      workers,
		SkipHardware: true,
		Checkpoint:   cimsa.Checkpoint{Dir: rr.dir, Resume: true},
	}
}

func (rr *resumeRun) workers() int {
	if rr.leg < len(rr.sc.Workers) {
		return rr.sc.Workers[rr.leg]
	}
	return 1
}

// kill runs one leg and cancels it at the arg-th progress event. If the
// solve outruns the cancel and completes, the result is kept and the
// remaining faults have nothing left to interrupt.
func (rr *resumeRun) kill(arg int) {
	rr.t.Helper()
	killAt := 2 + arg%6
	workers := rr.workers()
	rr.leg++
	opt := rr.options(workers)
	hadFile := rr.path != ""
	resumed := false
	opt.Checkpoint.OnResume = func(string) { resumed = true }
	writes := 0
	opt.Checkpoint.OnWrite = func(p string) {
		writes++
		rr.path = p
		if data, err := os.ReadFile(p); err == nil {
			rr.stash = append(rr.stash, data)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	opt.Progress = func(cimsa.ProgressEvent) {
		events++
		if events == killAt {
			cancel()
		}
	}
	rep, err := cimsa.SolveContext(ctx, rr.in, opt)
	switch {
	case err == nil:
		rr.done = rep
		rr.logf("kill@%d (workers %d): solve finished first", killAt, workers)
		return
	case errors.Is(err, context.Canceled):
	default:
		rr.fatalf("kill@%d: unexpected error %v", killAt, err)
	}
	if hadFile && !resumed {
		rr.fatalf("kill@%d: leg did not resume from the existing checkpoint", killAt)
	}
	if rr.path == "" {
		rr.fatalf("kill@%d: interrupted leg flushed no checkpoint", killAt)
	}
	// The flushed snapshot must load and belong to this exact run.
	snap, err := checkpoint.Load(rr.path)
	if err != nil {
		rr.fatalf("kill@%d: flushed checkpoint does not load: %v", killAt, err)
	}
	if snap.Seed != rr.sc.SolverSeed || snap.InstanceHash != checkpoint.InstanceHash(rr.in) {
		rr.fatalf("kill@%d: flushed checkpoint identifies a different run", killAt)
	}
	rr.logf("kill@%d (workers %d): %d writes, interrupted", killAt, workers, writes)
}

// corrupt flips one byte, proves rejection, restores the backup.
func (rr *resumeRun) corrupt(arg int) {
	rr.t.Helper()
	if rr.path == "" {
		rr.logf("corrupt: no checkpoint yet, skipped")
		return
	}
	pristine, err := os.ReadFile(rr.path)
	if err != nil {
		rr.fatalf("corrupt: read checkpoint: %v", err)
	}
	bad := append([]byte(nil), pristine...)
	bad[arg%len(bad)] ^= 0xff
	if err := os.WriteFile(rr.path, bad, 0o644); err != nil {
		rr.fatalf("corrupt: write: %v", err)
	}
	_, err = cimsa.Solve(rr.in, rr.options(1))
	if err == nil {
		rr.fatalf("corrupt: bit-flipped checkpoint was accepted")
	}
	if !errors.Is(err, checkpoint.ErrInvalid) && !errors.Is(err, checkpoint.ErrMismatch) {
		rr.fatalf("corrupt: rejection %v wraps neither ErrInvalid nor ErrMismatch", err)
	}
	if !strings.Contains(err.Error(), rr.path) {
		rr.fatalf("corrupt: diagnostic %q does not name the file", err)
	}
	if err := os.WriteFile(rr.path, pristine, 0o644); err != nil {
		rr.fatalf("corrupt: restore backup: %v", err)
	}
	rr.logf("corrupt byte %d: rejected with diagnostic, backup restored", arg%len(bad))
}

// stale swaps the checkpoint for an earlier stashed snapshot.
func (rr *resumeRun) stale(arg int) {
	rr.t.Helper()
	if len(rr.stash) < 2 {
		rr.logf("stale-swap: fewer than two snapshots stashed, skipped")
		return
	}
	// Never pick the newest: the point is to lose the tail of the run.
	i := arg % (len(rr.stash) - 1)
	if err := os.WriteFile(rr.path, rr.stash[i], 0o644); err != nil {
		rr.fatalf("stale-swap: write: %v", err)
	}
	rr.logf("stale-swap: rolled back to snapshot %d of %d", i, len(rr.stash))
}

// torn litters the directory with crash-mid-write temp debris.
func (rr *resumeRun) torn(arg int) {
	rr.t.Helper()
	garbage := make([]byte, 16+arg%64)
	for i := range garbage {
		garbage[i] = byte(arg + i*7)
	}
	name := rr.dir + "/torn.ckpt.tmp"
	if rr.path != "" {
		name = rr.path + ".tmp"
	}
	if err := os.WriteFile(name, garbage, 0o644); err != nil {
		rr.fatalf("torn-tmp: write: %v", err)
	}
	rr.logf("torn-tmp: %d garbage bytes at %s", len(garbage), name)
}

// RunResumeSchedule executes a kill-and-resume schedule end to end:
// solve the baseline uninterrupted, replay every scripted fault, then
// resume to completion and require the tour, length and work counters
// to be bit-identical to the baseline.
func RunResumeSchedule(t *testing.T, sc ResumeSchedule) {
	t.Helper()
	if len(sc.Workers) == 0 {
		sc.Workers = []int{1}
	}
	in := cimsa.GenerateInstance(fmt.Sprintf("resume-%d", sc.Seed), sc.N, sc.InstSeed)
	rr := &resumeRun{t: t, sc: sc, in: in, dir: t.TempDir()}

	baseOpt := rr.options(1)
	baseOpt.Checkpoint = cimsa.Checkpoint{}
	want, err := cimsa.Solve(in, baseOpt)
	if err != nil {
		t.Fatalf("[resume seed %d] baseline solve: %v", sc.Seed, err)
	}

	for i, op := range sc.Ops {
		if rr.done != nil {
			rr.logf("op %d: %s skipped, solve already finished", i, op.Kind)
			continue
		}
		rr.logf("op %d: %s(%d)", i, op.Kind, op.Arg)
		switch op.Kind {
		case RKill:
			rr.kill(op.Arg)
		case RCorrupt:
			rr.corrupt(op.Arg)
		case RStale:
			rr.stale(op.Arg)
		case RTorn:
			rr.torn(op.Arg)
		default:
			rr.fatalf("unknown resume op %v", op.Kind)
		}
	}

	got := rr.done
	if got == nil {
		workers := rr.workers()
		opt := rr.options(workers)
		resumed := false
		opt.Checkpoint.OnResume = func(string) { resumed = true }
		got, err = cimsa.Solve(in, opt)
		if err != nil {
			rr.fatalf("final resume leg: %v", err)
		}
		if rr.path != "" && !resumed {
			rr.fatalf("final leg ignored the on-disk checkpoint")
		}
		rr.logf("final leg (workers %d) finished", workers)
	}

	if got.Length != want.Length {
		rr.fatalf("resumed length %v != uninterrupted %v", got.Length, want.Length)
	}
	if len(got.Tour) != len(want.Tour) {
		rr.fatalf("resumed tour has %d cities, baseline %d", len(got.Tour), len(want.Tour))
	}
	for i := range got.Tour {
		if got.Tour[i] != want.Tour[i] {
			rr.fatalf("resumed tour diverges from uninterrupted at position %d", i)
		}
	}
	if got.Solver != want.Solver {
		rr.fatalf("resumed work counters diverge:\nresumed %+v\nbaseline %+v", got.Solver, want.Solver)
	}
	if testing.Verbose() {
		rr.t.Logf("[resume seed %d] bit-identical after:\n  %s", sc.Seed, joinLines(rr.opLog))
	}
}
