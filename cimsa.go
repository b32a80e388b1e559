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
// It runs the whole pipeline of one solve: the clustered noisy-CIM
// anneal (internal/clustered) once per replica, best-of-replicas
// selection, and the chip PPA estimate (internal/ppa) for the paper's
// semi-flexible design point. Other design points (custom noise
// schedules, clustering strategies, technology constants) are reached
// through the internal packages directly, by code inside this module
// (examples, cmd tools, experiments).
package cimsa

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"cimsa/internal/checkpoint"
	"cimsa/internal/cluster"
	"cimsa/internal/clustered"
	"cimsa/internal/heuristics"
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
type Report struct {
	// Instance and N identify the workload.
	Instance string
	N        int
	// Tour and Length are the solution.
	Tour   Tour
	Length float64
	// ReferenceLength is the classical reference tour length (0 when not
	// computed); OptimalRatio = Length / ReferenceLength.
	ReferenceLength float64
	OptimalRatio    float64
	// Solver carries the annealing statistics. Under Restarts > 1 every
	// work counter is the sum over all replicas (the energy model sees
	// the total work done), while Tour/Length come from the best one.
	Solver clustered.Stats
	// Chip carries the hardware PPA evaluation. It is the zero value
	// when SkipHardware is set or when no level was annealed (an
	// instance of at most cluster.TopThreshold cities is solved
	// exactly, so no chip runs).
	Chip ppa.ChipReport
}

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
	_, err := o.resolve()
	return err
}

// run is one solve's Options, checked and resolved once into what
// every replica and checkpoint shares.
type run struct {
	opt Options
	// strategy is semi-flexible clustering with PMax, the policy the
	// chip implements.
	strategy cluster.Strategy
	mode     clustered.Mode
	restarts int // >= 1
	// fabric is the configured substrate at FabricSeed. Replica fabric
	// seeds derive from Seed and FabricSeed, both recorded in every
	// checkpoint, so its kind, parameters and version pin the whole
	// noise stream: a snapshot resumed under another fabric (or a
	// re-seeded chip) is rejected instead of silently diverging.
	fabric noise.Fabric
	// sink, when non-nil, receives a snapshot at every write-back epoch
	// of every replica, at every restart boundary (Solver == nil), and
	// — with Solver.Flush set — when the context is cancelled. Its
	// error aborts the solve.
	sink func(*checkpoint.Snapshot) error
	// resume continues from a snapshot the sink produced. It is
	// verified against the instance and this run before any annealing.
	resume *checkpoint.Snapshot
}

// resolve is Validate's single pass over the options; it also returns
// the run they resolve to.
func (o Options) resolve() (*run, error) {
	r := &run{opt: o, strategy: cluster.Strategy{Kind: cluster.SemiFlex, P: 3}, restarts: max(o.Restarts, 1)}
	if o.PMax != 0 {
		if o.PMax < 2 || o.PMax > 8 {
			return nil, fmt.Errorf("cimsa: PMax %d out of range 2..8 (0 defaults to 3)", o.PMax)
		}
		r.strategy.P = o.PMax
	}
	if o.Workers < 0 {
		return nil, fmt.Errorf("cimsa: negative Workers %d (0 picks the pool size automatically)", o.Workers)
	}
	if o.Restarts < 0 {
		return nil, fmt.Errorf("cimsa: negative Restarts %d", o.Restarts)
	}
	if o.Mode != "" {
		m, err := clustered.ParseMode(o.Mode)
		if err != nil {
			return nil, fmt.Errorf("cimsa: unknown Mode %q (noisy-cim | metropolis | greedy | noisy-spins)", o.Mode)
		}
		r.mode = m
	}
	f, err := noise.New(o.Fabric, o.FabricSeed)
	if err != nil {
		return nil, fmt.Errorf("cimsa: unknown Fabric %q (sram | mram | fefet | clean)", o.Fabric)
	}
	r.fabric = f
	if o.Checkpoint.EveryEpochs < 0 {
		return nil, fmt.Errorf("cimsa: negative Checkpoint.EveryEpochs %d", o.Checkpoint.EveryEpochs)
	}
	if o.Checkpoint.Dir == "" && (o.Checkpoint.Resume || o.Checkpoint.EveryEpochs > 0) {
		return nil, fmt.Errorf("cimsa: Checkpoint requires Dir to be set")
	}
	return r, nil
}

// Solve runs the clustered noisy-CIM annealer on the instance.
func Solve(in *Instance, opt Options) (*Report, error) {
	return SolveContext(context.Background(), in, opt)
}

// SolveContext is Solve with cancellation: ctx is checked between
// chromatic phases and at write-back epochs, so even 100k-city solves
// abort promptly. A run whose context is never cancelled is
// bit-identical to Solve with the same options — the plumbing consumes
// no randomness. The classical reference solver (Options.Reference)
// runs after the anneal and is not interruptible.
func SolveContext(ctx context.Context, in *Instance, opt Options) (rep *Report, err error) {
	r, err := opt.resolve()
	if err != nil {
		return nil, err
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
				r.resume = snap
				if ck.OnResume != nil {
					ck.OnResume(path)
				}
			case errors.Is(err, fs.ErrNotExist):
				// No checkpoint yet: fresh start.
			default:
				return nil, err
			}
		}
		every := max(ck.EveryEpochs, 1)
		epochs := 0
		w := checkpoint.NewWriter(path, ck.OnWrite)
		// Close on every return path: the job's owner may delete Dir as
		// soon as the solve returns, so no write may outlive it.
		defer func() {
			if cerr := w.Close(); err == nil && cerr != nil {
				rep, err = nil, cerr
			}
		}()
		r.sink = func(s *checkpoint.Snapshot) error {
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
	rep, err = r.solve(ctx, in)
	if err != nil || !opt.Reference {
		return rep, err
	}
	_, ref := heuristics.Reference(in)
	rep.ReferenceLength = ref
	if ref > 0 {
		rep.OptimalRatio = rep.Length / ref
	}
	return rep, nil
}

// expect is the configuration fingerprint a resumed snapshot must carry.
func (r *run) expect() checkpoint.Expect {
	return checkpoint.Expect{
		Seed:          r.opt.Seed,
		Mode:          r.mode.String(),
		Restarts:      r.restarts,
		Strategy:      r.strategy,
		Schedule:      noise.PaperSchedule(),
		FabricKind:    r.fabric.Kind(),
		FabricParams:  r.fabric.Params(),
		FabricVersion: r.fabric.Version(),
	}
}

// snapshot assembles the durable checkpoint for the given replica
// index: the run identity, the best tour so far, the completed
// replicas' aggregated stats, and (mid-replica) the solver state.
func (r *run) snapshot(in *Instance, hash uint64, replica int, best *clustered.Result, agg *clustered.Stats, solver *clustered.Snapshot) *checkpoint.Snapshot {
	e := r.expect()
	s := &checkpoint.Snapshot{
		Instance:      in.Name,
		N:             in.N(),
		InstanceHash:  hash,
		Seed:          e.Seed,
		Mode:          e.Mode,
		Restarts:      e.Restarts,
		Strategy:      e.Strategy,
		Schedule:      e.Schedule,
		FabricKind:    e.FabricKind,
		FabricParams:  e.FabricParams,
		FabricVersion: e.FabricVersion,
		RNG:           checkpoint.Fingerprint(e.Seed),
		Restart:       replica,
		BestLength:    best.Length,
		AggStats:      *agg,
		Solver:        solver,
	}
	if len(best.Tour) > 0 {
		s.BestTour = append([]int(nil), best.Tour...)
	}
	return s
}

// solve runs the replicas — replica k anneals with seed Seed+k on its
// own chip, the software analogue of multi-replica annealer chips —
// keeps the shortest tour, sums every replica's work counters, and
// estimates the chip that ran one replica's schedule.
func (r *run) solve(ctx context.Context, in *Instance) (*Report, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	var hash uint64
	if r.sink != nil || r.resume != nil {
		hash = checkpoint.InstanceHash(in)
	}
	var best clustered.Result
	var agg clustered.Stats
	start := 0
	var resumeSolver *clustered.Snapshot
	if s := r.resume; s != nil {
		if err := s.Verify(in, r.expect()); err != nil {
			return nil, err
		}
		start, agg, resumeSolver = s.Restart, s.AggStats, s.Solver
		if len(s.BestTour) > 0 {
			best = clustered.Result{Tour: append(Tour(nil), s.BestTour...), Length: s.BestLength}
		}
	}
	levels := 0
	for replica := start; replica < r.restarts; replica++ {
		seed := r.opt.Seed + uint64(replica)
		// Each replica is a distinct chip: new fabric, new errors. With
		// FabricSeed unset, replica 0's chip is the one clustered would
		// derive from Seed, so results predating fabric selection hold.
		fabricSeed := seed ^ 0xfab
		if r.opt.FabricSeed != 0 {
			fabricSeed = r.opt.FabricSeed + uint64(replica)
		}
		fabric, err := noise.New(r.fabric.Kind(), fabricSeed)
		if err != nil {
			return nil, err
		}
		opts := clustered.Options{
			Strategy: r.strategy,
			Schedule: noise.PaperSchedule(),
			Fabric:   fabric,
			Mode:     r.mode,
			Seed:     seed,
			Workers:  r.opt.Workers,
		}
		if replica == start {
			// Mid-replica solver state applies only to the replica the
			// snapshot was taken in; later replicas start from scratch.
			opts.Resume = resumeSolver
		}
		if progress := r.opt.Progress; progress != nil {
			opts.Progress = func(ev clustered.ProgressEvent) {
				ev.Restart = replica
				progress(ev)
			}
		}
		if r.sink != nil {
			opts.Checkpoint = func(cs *clustered.Snapshot) error {
				return r.sink(r.snapshot(in, hash, replica, &best, &agg, cs))
			}
		}
		cur, err := clustered.SolveContext(ctx, in, opts)
		if err != nil {
			return nil, err
		}
		// Every replica must hand back a Hamiltonian cycle. A broken
		// permutation here means solver state corruption, and silently
		// comparing its Length against honest replicas could crown it
		// the winner — fail loudly instead.
		if err := cur.Tour.Validate(in.N()); err != nil {
			return nil, fmt.Errorf("cimsa: replica %d returned an invalid tour: %w", replica, err)
		}
		// Work accumulates symmetrically across every replica — win or
		// lose — so the energy/PPA inputs count all the work done, not
		// just the winner's share.
		agg.Add(cur.Stats)
		// The chip runs one replica's schedule: the per-run level count
		// is identical across replicas, and a resumed replica's restored
		// stats include its earlier levels.
		levels = cur.Stats.Levels
		if len(best.Tour) == 0 || cur.Length < best.Length {
			best = cur
		}
		if r.sink != nil && replica+1 < r.restarts {
			// Restart boundary: persist the inter-replica state so a kill
			// here resumes straight into replica+1.
			if err := r.sink(r.snapshot(in, hash, replica+1, &best, &agg, nil)); err != nil {
				return nil, fmt.Errorf("cimsa: checkpoint hook: %w", err)
			}
		}
	}
	rep := &Report{Instance: in.Name, N: in.N(), Tour: best.Tour, Length: best.Length, Solver: agg}
	if !r.opt.SkipHardware && levels > 0 {
		sched := noise.PaperSchedule()
		prof := ppa.RunProfile{Levels: levels, IterationsPerLevel: sched.TotalIters(), EpochIters: sched.EpochIters}
		chip, err := ppa.Chip(in.N(), r.strategy.P, prof, ppa.Tech16nm())
		if err != nil {
			return nil, fmt.Errorf("cimsa: hardware report: %w", err)
		}
		rep.Chip = chip
	}
	return rep, nil
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
