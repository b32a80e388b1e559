// Package core wires the full system together: clustering, the noisy
// CIM annealer, the classical reference solver and the hardware PPA
// model, behind one Annealer type. This is the paper's complete
// algorithm/hardware co-design as a library.
package core

import (
	"context"
	"fmt"

	"cimsa/internal/checkpoint"
	"cimsa/internal/cluster"
	"cimsa/internal/clustered"
	"cimsa/internal/heuristics"
	"cimsa/internal/noise"
	"cimsa/internal/ppa"
	"cimsa/internal/tour"
	"cimsa/internal/tsplib"
)

// Config selects the design point.
type Config struct {
	// PMax is the maximum cluster size (2..4 in the paper's evaluation);
	// 0 defaults to 3, the paper's best trade-off. Ignored when Strategy
	// is set explicitly.
	PMax int
	// Strategy overrides the clustering policy (default: semi-flexible
	// with PMax).
	Strategy cluster.Strategy
	// Schedule is the noise/iteration schedule (default: the paper's
	// 400-iteration 300→580 mV schedule).
	Schedule noise.Schedule
	// Mode selects the randomness source (default: noisy CIM weights).
	Mode clustered.Mode
	// Fabric selects the noise substrate by registry kind ("sram",
	// "mram", "fefet", "clean"); empty means the paper's SRAM fabric.
	Fabric string
	// FabricSeed pins the fabricated chip explicitly (replica r uses
	// FabricSeed + r); 0 derives each replica's fabric seed from Seed,
	// the pre-fabric default.
	FabricSeed uint64
	// Seed drives proposals and the fabric.
	Seed uint64
	// Tech provides the PPA technology constants (default: 16 nm).
	Tech ppa.Tech
	// SkipHardwareReport disables the chip PPA evaluation.
	SkipHardwareReport bool
	// Workers sets the solver's worker-pool size: 0 resolves it per
	// solve from the instance size and GOMAXPROCS, 1 runs inline, n > 1
	// is an n-worker pool. Results are bit-identical for every value.
	Workers int
	// Restarts runs that many independent replicas (distinct proposal
	// seeds and noise fabrics) and keeps the best tour — the software
	// analogue of multi-replica annealer chips. 0 or 1 means one run.
	Restarts int
	// Progress, when non-nil, receives the solver's per-epoch and
	// per-level progress events with ProgressEvent.Restart filled in
	// (multi-restart solves emit one full event sequence per replica).
	// The hook runs on the solve goroutine and must be fast.
	Progress func(clustered.ProgressEvent)
	// Checkpoint, when non-nil, receives a durable full-solver snapshot
	// at every write-back epoch of every replica, at every restart
	// boundary (Solver == nil, between replicas), and — with
	// Snapshot.Solver.Flush set — when the context is cancelled.
	// Returning an error aborts the solve with that error.
	Checkpoint func(*checkpoint.Snapshot) error
	// Resume continues a solve from a snapshot previously produced by
	// Checkpoint. It is verified against the instance and this
	// configuration before any annealing happens; a corrupt or
	// mismatched snapshot fails the solve with a diagnostic rather than
	// silently annealing from bad state.
	Resume *checkpoint.Snapshot
}

// Annealer is a configured solver.
type Annealer struct {
	cfg  Config
	pmax int
}

// New validates the configuration and returns an Annealer.
func New(cfg Config) (*Annealer, error) {
	pmax := cfg.PMax
	if pmax == 0 {
		pmax = 3
	}
	if pmax < 2 || pmax > 8 {
		return nil, fmt.Errorf("core: PMax %d out of range", cfg.PMax)
	}
	if cfg.Strategy == (cluster.Strategy{}) {
		cfg.Strategy = cluster.Strategy{Kind: cluster.SemiFlex, P: pmax}
	}
	if err := cfg.Strategy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Schedule == (noise.Schedule{}) {
		cfg.Schedule = noise.PaperSchedule()
	}
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, err
	}
	if cfg.Tech == (ppa.Tech{}) {
		cfg.Tech = ppa.Tech16nm()
	}
	if _, err := noise.New(cfg.Fabric, 0); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Annealer{cfg: cfg, pmax: pmax}, nil
}

// CheckpointExpect returns the configuration fingerprint a checkpoint
// for this annealer must carry; Config.Resume snapshots are verified
// against it (with defaults already normalized by New).
func (a *Annealer) CheckpointExpect() checkpoint.Expect {
	restarts := a.cfg.Restarts
	if restarts < 1 {
		restarts = 1
	}
	kind, params, version := a.fabricIdentity()
	return checkpoint.Expect{
		Seed:          a.cfg.Seed,
		Mode:          a.cfg.Mode.String(),
		Restarts:      restarts,
		Strategy:      a.cfg.Strategy,
		Schedule:      a.cfg.Schedule,
		FabricKind:    kind,
		FabricParams:  params,
		FabricVersion: version,
	}
}

// fabricIdentity renders the configured noise substrate's identity for
// checkpoint verification: the canonical kind, the implementation's
// parameter string at the configured fabric seed, and its version tag.
// Per-replica fabric seeds derive from Config.Seed and Config.FabricSeed
// — both captured here or in Expect.Seed — so this triple pins the
// entire noise stream: a snapshot resumed under a different fabric (or a
// re-seeded chip) is rejected instead of silently diverging.
func (a *Annealer) fabricIdentity() (kind, params, version string) {
	f, err := noise.New(a.cfg.Fabric, a.cfg.FabricSeed)
	if err != nil {
		// New validated the kind already; unreachable.
		panic(fmt.Sprintf("core: fabric identity: %v", err))
	}
	return f.Kind(), f.Params(), f.Version()
}

// snapshot assembles the durable checkpoint for the given replica
// index: the run identity, the best tour so far, the completed
// replicas' aggregated stats, and (mid-replica) the solver state.
func (a *Annealer) snapshot(in *tsplib.Instance, hash uint64, restarts, rep int, best *clustered.Result, agg *clustered.Stats, solver *clustered.Snapshot) *checkpoint.Snapshot {
	kind, params, version := a.fabricIdentity()
	s := &checkpoint.Snapshot{
		Instance:      in.Name,
		N:             in.N(),
		InstanceHash:  hash,
		Seed:          a.cfg.Seed,
		Mode:          a.cfg.Mode.String(),
		Restarts:      restarts,
		Strategy:      a.cfg.Strategy,
		Schedule:      a.cfg.Schedule,
		FabricKind:    kind,
		FabricParams:  params,
		FabricVersion: version,
		RNG:           checkpoint.Fingerprint(a.cfg.Seed),
		Restart:       rep,
		BestLength:    best.Length,
		AggStats:      *agg,
		Solver:        solver,
	}
	if len(best.Tour) > 0 {
		s.BestTour = append([]int(nil), best.Tour...)
	}
	return s
}

// Report is a complete solve outcome.
type Report struct {
	// Instance and N identify the workload.
	Instance string
	N        int
	// Tour and Length are the solution.
	Tour   tour.Tour
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
	// when SkipHardwareReport is set, when the strategy is not
	// semi-flexible, or when no level was annealed (an instance of at
	// most cluster.TopThreshold cities is solved exactly, so no chip
	// runs).
	Chip ppa.ChipReport
}

// Solve runs the annealer on the instance.
func (a *Annealer) Solve(in *tsplib.Instance) (*Report, error) {
	return a.SolveContext(context.Background(), in)
}

// SolveContext is Solve with cancellation: ctx is threaded into every
// replica's solve, where it is checked between chromatic phases and at
// write-back epochs. A run whose context is never cancelled is
// bit-identical to Solve.
func (a *Annealer) SolveContext(ctx context.Context, in *tsplib.Instance) (*Report, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	restarts := a.cfg.Restarts
	if restarts < 1 {
		restarts = 1
	}
	var hash uint64
	if a.cfg.Checkpoint != nil || a.cfg.Resume != nil {
		hash = checkpoint.InstanceHash(in)
	}
	var res clustered.Result
	var agg clustered.Stats
	startRep := 0
	var resumeSolver *clustered.Snapshot
	if snap := a.cfg.Resume; snap != nil {
		if err := snap.Verify(in, a.CheckpointExpect()); err != nil {
			return nil, err
		}
		startRep = snap.Restart
		agg = snap.AggStats
		if len(snap.BestTour) > 0 {
			res = clustered.Result{
				Tour:   append(tour.Tour(nil), snap.BestTour...),
				Length: snap.BestLength,
			}
		}
		resumeSolver = snap.Solver
	}
	runLevels := 0
	for rep := startRep; rep < restarts; rep++ {
		seed := a.cfg.Seed + uint64(rep)
		opts := clustered.Options{
			Strategy: a.cfg.Strategy,
			Schedule: a.cfg.Schedule,
			Mode:     a.cfg.Mode,
			Seed:     seed,
			Workers:  a.cfg.Workers,
		}
		if rep == startRep {
			// Mid-replica solver state applies only to the replica the
			// snapshot was taken in; later replicas start from scratch.
			opts.Resume = resumeSolver
		}
		if a.cfg.Progress != nil {
			replica := rep
			progress := a.cfg.Progress
			opts.Progress = func(ev clustered.ProgressEvent) {
				ev.Restart = replica
				progress(ev)
			}
		}
		if a.cfg.Checkpoint != nil {
			replica := rep
			opts.Checkpoint = func(cs *clustered.Snapshot) error {
				return a.cfg.Checkpoint(a.snapshot(in, hash, restarts, replica, &res, &agg, cs))
			}
		}
		fabricSeed := seed ^ 0xfab
		if a.cfg.FabricSeed != 0 {
			fabricSeed = a.cfg.FabricSeed + uint64(rep)
		}
		if a.cfg.Fabric != "" || a.cfg.FabricSeed != 0 {
			// An explicit substrate or chip seed: build it here for every
			// replica (each replica is a distinct chip: new fabric, new
			// errors). The kind was validated by New.
			f, err := noise.New(a.cfg.Fabric, fabricSeed)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			opts.Fabric = f
		} else if rep > 0 {
			// Default substrate: replica 0 leaves Fabric nil so clustered
			// derives the identical pre-refactor default; later replicas
			// are distinct chips.
			opts.Fabric = noise.NewFabric(fabricSeed)
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
			return nil, fmt.Errorf("core: replica %d returned an invalid tour: %w", rep, err)
		}
		// Work accumulates symmetrically across every replica — win or
		// lose — so the energy/PPA inputs count all the work done, not
		// just the winner's share. The tour is the best replica's.
		agg.Add(cur.Stats)
		// The chip runs one replica's schedule; track the per-run level
		// count for the hardware profile (identical across replicas, and
		// a resumed replica's restored stats include its earlier levels).
		runLevels = cur.Stats.Levels
		if len(res.Tour) == 0 || cur.Length < res.Length {
			res = cur
		}
		if a.cfg.Checkpoint != nil && rep+1 < restarts {
			// Restart boundary: persist the inter-replica state so a kill
			// here resumes straight into replica rep+1.
			if err := a.cfg.Checkpoint(a.snapshot(in, hash, restarts, rep+1, &res, &agg, nil)); err != nil {
				return nil, fmt.Errorf("core: checkpoint hook: %w", err)
			}
		}
	}
	res.Stats = agg
	rep := &Report{
		Instance: in.Name,
		N:        in.N(),
		Tour:     res.Tour,
		Length:   res.Length,
		Solver:   res.Stats,
	}
	if !a.cfg.SkipHardwareReport && a.cfg.Strategy.Kind == cluster.SemiFlex && runLevels > 0 {
		prof := ppa.RunProfile{
			Levels:             runLevels,
			IterationsPerLevel: a.cfg.Schedule.TotalIters(),
			EpochIters:         a.cfg.Schedule.EpochIters,
		}
		chip, err := ppa.Chip(in.N(), a.cfg.Strategy.P, prof, a.cfg.Tech)
		if err != nil {
			return nil, fmt.Errorf("core: hardware report: %w", err)
		}
		rep.Chip = chip
	}
	return rep, nil
}

// SolveWithReference runs the annealer and the classical reference
// solver, filling in the optimal ratio.
func (a *Annealer) SolveWithReference(in *tsplib.Instance) (*Report, error) {
	return a.SolveWithReferenceContext(context.Background(), in)
}

// SolveWithReferenceContext is SolveWithReference with cancellation.
// The annealing phase honours ctx; the classical reference solver runs
// only after it completes and is not interruptible.
func (a *Annealer) SolveWithReferenceContext(ctx context.Context, in *tsplib.Instance) (*Report, error) {
	rep, err := a.SolveContext(ctx, in)
	if err != nil {
		return nil, err
	}
	_, ref := heuristics.Reference(in)
	rep.ReferenceLength = ref
	if ref > 0 {
		rep.OptimalRatio = rep.Length / ref
	}
	return rep, nil
}

// SolveName loads a registry instance by name and solves it with the
// reference comparison.
func (a *Annealer) SolveName(name string) (*Report, error) {
	in, err := tsplib.Load(name)
	if err != nil {
		return nil, err
	}
	return a.SolveWithReference(in)
}
