// Package cimsa is a software reproduction of "Digital CIM with Noisy
// SRAM Bit: A Compact Clustered Annealer for Large-Scale Combinatorial
// Optimization" (DAC 2024): an Ising-model TSP annealer that solves
// tens-of-thousands-of-city problems with MB-level weight memory by
// combining hierarchical clustering (input sparsity), compact digital
// compute-in-memory weight windows (weight sparsity), chromatic parallel
// cluster updates, and annealing driven by the intrinsic process
// variation of SRAM bit cells under reduced supply voltage.
//
// This package is the stable facade over the internal packages:
//
//	result, err := cimsa.Solve(instance, cimsa.Options{PMax: 3})
//
// For finer control (custom noise schedules, ablation modes, PPA
// technology constants) construct a core annealer via Options.Advanced
// fields; the internal packages are reachable for code inside this
// module (examples, cmd tools, benchmarks).
package cimsa

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"cimsa/internal/checkpoint"
	"cimsa/internal/clustered"
	"cimsa/internal/core"
	"cimsa/internal/noise"
	"cimsa/internal/ppa"
	"cimsa/internal/tour"
	"cimsa/internal/tsplib"
)

// Instance is a TSP problem instance (re-exported from the tsplib
// package for facade users).
type Instance = tsplib.Instance

// WorkersAuto names the zero value of Options.Workers: the solver picks
// the pool size per solve from the instance size and GOMAXPROCS, so
// small instances run sequentially and paper-scale ones spread across
// cores. Auto is the right default for mixed workloads (e.g. a solve
// service fielding both 500-city and 85k-city jobs); like every other
// worker count it is bit-identical to sequential execution.
const WorkersAuto = 0

// Tour is a cyclic visiting order of city indices.
type Tour = tour.Tour

// Report is the full solve outcome: solution, quality vs the classical
// reference solver, annealing statistics and the hardware PPA estimate.
type Report = core.Report

// ChipReport is the hardware performance/power/area estimate.
type ChipReport = ppa.ChipReport

// ProgressEvent is one solver progress notification: emitted at every
// write-back epoch and at the end of every annealed level (see
// Options.Progress).
type ProgressEvent = clustered.ProgressEvent

// Options selects the annealer design point.
type Options struct {
	// PMax is the maximum cluster size (the paper evaluates 2..4;
	// 3 is the recommended trade-off and the default).
	PMax int
	// Seed makes runs reproducible; same seed, same tour.
	Seed uint64
	// Reference additionally runs the classical reference solver and
	// fills Report.OptimalRatio.
	Reference bool
	// SkipHardware disables the chip PPA estimate.
	SkipHardware bool
	// Workers sizes the persistent worker pool that updates
	// non-adjacent clusters at once, like the hardware updates all
	// same-phase windows in one cycle. 0 (WorkersAuto) lets the solver
	// choose from the instance size and GOMAXPROCS: sequential where the
	// pool cannot pay for its own hand-offs, pooled at paper scale. 1
	// runs fully inline, and n > 1 uses an n-worker pool. Negative
	// values are rejected. Every worker count produces bit-identical
	// results — enforced in clustered's determinism tests and again at
	// the service boundary (internal/faultinject), where solves run next
	// to cancelled siblings with the scheduler's Progress hook injected.
	Workers int
	// Mode selects the randomness source by name: "noisy-cim" (default),
	// "metropolis", "greedy" or "noisy-spins" (the ablations of
	// DESIGN.md).
	Mode string
	// Fabric selects the noise substrate the weights are read through:
	// "sram" (the paper's noisy SRAM bit, the default), "mram"
	// (TAXI-style stochastic toward-reset flips), "fefet"
	// (domain-granular errors with a steep retention cliff) or "clean"
	// (an ideal array: no noise at any supply). The fabric changes the
	// solve's output, so it is folded into cached-result identity.
	Fabric string
	// FabricSeed pins the fabricated chip explicitly; replica r of a
	// multi-restart solve uses FabricSeed + r. 0 (the default) derives
	// each replica's chip from Seed exactly as before fabrics were
	// selectable.
	FabricSeed uint64
	// Restarts runs that many independent replicas (distinct seeds and
	// noise fabrics) and keeps the best tour; 0 or 1 means a single run.
	Restarts int
	// Progress, when non-nil, receives per-epoch and per-level progress
	// events (with the restart index for multi-restart runs). The hook
	// runs on the solve goroutine, only observes state — it cannot change
	// the result — and must return quickly.
	Progress func(ProgressEvent)
	// Checkpoint enables durable snapshots and resume (zero value: off).
	Checkpoint Checkpoint
}

// Checkpoint configures durable solve snapshots: when Dir is set, the
// solver periodically persists its full state (atomically, with a
// checksum) to one file per (instance, seed) pair inside Dir, and —
// with Resume set — continues from that file if it exists. A resumed
// run is bit-identical to one that never stopped: same tour, same
// length, same statistics, at every worker count. A corrupt, truncated
// or mismatched file fails the solve with a diagnostic; it is never
// silently annealed from.
type Checkpoint struct {
	// Dir is the checkpoint directory (created if missing). Empty
	// disables checkpointing entirely.
	Dir string
	// EveryEpochs offers one snapshot per that many write-back epochs
	// (0 or 1: every epoch). Epoch snapshots go to a background writer
	// and the solve continues at once; one that is superseded before its
	// write starts is dropped, so the file always holds the newest
	// complete snapshot the writer reached. Restart boundaries and
	// cancellation flushes are always written, and the solve waits for
	// them. A write error fails the solve at the next snapshot or on
	// return.
	EveryEpochs int
	// Resume loads Dir's checkpoint for this (instance, seed) pair and
	// continues from it; a missing file just starts fresh.
	Resume bool
	// OnWrite, when non-nil, is called with the file path after every
	// completed snapshot write. It runs on the writer goroutine, never
	// concurrently with itself, and every call happens before
	// SolveContext returns. It must not wait on the solve: a flush
	// blocks the solve until OnWrite has returned. Observers that count
	// writes or ship the newest file elsewhere rely on this contract.
	OnWrite func(path string)
	// OnResume, when non-nil, is called with the file path when a
	// checkpoint was found and the solve will continue from it.
	OnResume func(path string)
}

// Validate checks the options without running anything — the single
// error path for every front end (CLI flags, service requests): a bad
// design point is rejected here with a field-specific error instead of
// failing deep inside the solver stack.
func (o Options) Validate() error {
	if o.PMax != 0 && (o.PMax < 2 || o.PMax > 8) {
		return fmt.Errorf("cimsa: PMax %d out of range 2..8 (0 defaults to 3)", o.PMax)
	}
	if o.Workers < 0 {
		return fmt.Errorf("cimsa: negative Workers %d (0 picks the pool size automatically)", o.Workers)
	}
	if o.Restarts < 0 {
		return fmt.Errorf("cimsa: negative Restarts %d", o.Restarts)
	}
	if o.Mode != "" {
		if _, err := clustered.ParseMode(o.Mode); err != nil {
			return fmt.Errorf("cimsa: unknown Mode %q (noisy-cim | metropolis | greedy | noisy-spins)", o.Mode)
		}
	}
	if o.Fabric != "" {
		if _, err := noise.New(o.Fabric, 0); err != nil {
			return fmt.Errorf("cimsa: unknown Fabric %q (sram | mram | fefet | clean)", o.Fabric)
		}
	}
	if o.Checkpoint.EveryEpochs < 0 {
		return fmt.Errorf("cimsa: negative Checkpoint.EveryEpochs %d", o.Checkpoint.EveryEpochs)
	}
	if o.Checkpoint.Dir == "" && (o.Checkpoint.Resume || o.Checkpoint.EveryEpochs > 0) {
		return fmt.Errorf("cimsa: Checkpoint requires Dir to be set")
	}
	return nil
}

// Solve runs the clustered noisy-CIM annealer on the instance.
func Solve(in *Instance, opt Options) (*Report, error) {
	return SolveContext(context.Background(), in, opt)
}

// SolveContext is Solve with cancellation: ctx is checked between
// chromatic phases and at write-back epochs, so even 100k-city solves
// abort promptly. A run whose context is never cancelled is
// bit-identical to Solve with the same options — the plumbing consumes
// no randomness.
func SolveContext(ctx context.Context, in *Instance, opt Options) (rep *Report, err error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	mode := clustered.ModeNoisyCIM
	if opt.Mode != "" {
		m, err := clustered.ParseMode(opt.Mode)
		if err != nil {
			return nil, err
		}
		mode = m
	}
	cfg := core.Config{
		PMax:               opt.PMax,
		Seed:               opt.Seed,
		Mode:               mode,
		Fabric:             opt.Fabric,
		FabricSeed:         opt.FabricSeed,
		SkipHardwareReport: opt.SkipHardware,
		Workers:            opt.Workers,
		Restarts:           opt.Restarts,
		Progress:           opt.Progress,
	}
	if ck := opt.Checkpoint; ck.Dir != "" {
		if err := os.MkdirAll(ck.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("cimsa: checkpoint dir: %w", err)
		}
		path := checkpoint.DefaultPath(ck.Dir, in, opt.Seed)
		if ck.Resume {
			snap, err := checkpoint.Load(path)
			switch {
			case err == nil:
				cfg.Resume = snap
				if ck.OnResume != nil {
					ck.OnResume(path)
				}
			case errors.Is(err, fs.ErrNotExist):
				// No checkpoint yet: fresh start.
			default:
				return nil, err
			}
		}
		every := ck.EveryEpochs
		if every < 1 {
			every = 1
		}
		epochs := 0
		w := checkpoint.NewWriter(path, ck.OnWrite)
		// Close on every return path: the job's owner may delete Dir as
		// soon as the solve returns, so no write may outlive it.
		defer func() {
			if cerr := w.Close(); err == nil && cerr != nil {
				rep, err = nil, cerr
			}
		}()
		cfg.Checkpoint = func(s *checkpoint.Snapshot) error {
			// Epoch snapshots honour the cadence and are handed off
			// without waiting; restart boundaries and cancellation
			// flushes always hit disk before the solve moves on — they
			// are the last state the interrupted run will ever offer.
			wait := s.Solver == nil || s.Solver.Flush
			if !wait {
				write := epochs%every == 0
				epochs++
				if !write {
					return nil
				}
			}
			return w.Put(s, wait)
		}
	}
	a, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if opt.Reference {
		return a.SolveWithReferenceContext(ctx, in)
	}
	return a.SolveContext(ctx, in)
}

// SolveName solves a built-in registry instance (e.g. "pcb3038",
// "rl5915", "pla85900"); the coordinates are synthesized
// deterministically since the module ships no data files.
func SolveName(name string, opt Options) (*Report, error) {
	in, err := tsplib.Load(name)
	if err != nil {
		return nil, err
	}
	return Solve(in, opt)
}

// LoadInstance parses a TSPLIB95 .tsp stream (EUC_2D, CEIL_2D, GEO and
// ATT metrics with NODE_COORD_SECTION).
func LoadInstance(r io.Reader) (*Instance, error) {
	return tsplib.Parse(r)
}

// GenerateInstance synthesizes an n-city instance whose spatial
// statistics follow the TSPLIB family the name suggests ("pcb...",
// "rl...", "pla...", "usa...", anything else uniform).
func GenerateInstance(name string, n int, seed uint64) *Instance {
	return tsplib.Generate(name, n, tsplib.StyleForName(name), seed)
}

// LoadNamed synthesizes a built-in registry instance by name.
func LoadNamed(name string) (*Instance, error) { return tsplib.Load(name) }

// InstanceNames lists the built-in registry instances in size order.
func InstanceNames() []string { return tsplib.Names() }
