// Package tspprob adapts the cimsa clustered annealer — the paper's
// TSP path — to the problem registry. It owns the TSP wire schema
// (instance source + solve options) that internal/serve used to
// hard-code, so the service layer no longer knows what a TSPLIB file
// is; it just dispatches "tsp" payloads here.
package tspprob

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"cimsa"
	"cimsa/internal/checkpoint"
	"cimsa/internal/noise"
	"cimsa/internal/problem"
)

// Name is the registry key for the TSP problem type.
const Name = "tsp"

func init() { problem.Register(Type{}) }

// Type registers TSP with the problem registry.
type Type struct{}

// Name implements problem.Type.
func (Type) Name() string { return Name }

// NewTask decodes a tsp payload (strict: unknown fields are errors).
func (Type) NewTask(payload json.RawMessage, lim problem.Limits) (problem.Task, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("tsp payload: %w", err)
	}
	return TaskFromSpec(&spec, lim)
}

// Spec is the tsp job payload: exactly one instance source (name /
// tsplib / generate) plus the solve options. It is also the legacy
// top-level cimserve submit schema, which predates the problem field —
// the serve layer still accepts those fields at the top level and
// routes them here.
type Spec struct {
	// Name solves a built-in registry instance (e.g. "pcb3038").
	Name string `json:"name,omitempty"`
	// TSPLIB is a raw TSPLIB95 .tsp file body.
	TSPLIB string `json:"tsplib,omitempty"`
	// Generate synthesizes an instance deterministically.
	Generate *GenerateSpec `json:"generate,omitempty"`
	// Options is the full solver design point.
	Options OptionsSpec `json:"options"`
}

// GenerateSpec describes a synthetic instance: the name picks the
// spatial style ("pcb...", "rl...", "pla...", "usa...", else uniform).
type GenerateSpec struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	Seed uint64 `json:"seed"`
}

// OptionsSpec mirrors cimsa.Options for the wire.
type OptionsSpec struct {
	PMax     int    `json:"pmax,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Mode     string `json:"mode,omitempty"`
	Restarts int    `json:"restarts,omitempty"`
	// Workers follows cimsa.Options.Workers: 0 (or omitted) picks the
	// pool size per solve, the right setting for a service fielding
	// mixed job sizes; 1 is sequential and n > 1 an n-worker pool. -1,
	// the auto sentinel of older clients and journals, still means auto;
	// any other negative value is rejected by validation.
	Workers int `json:"workers,omitempty"`
	// LegacyParallel accepts and ignores the "parallel" switch that
	// once enabled the worker pool next to Workers. Journals written
	// while it existed still carry it, and they replay through the
	// strict decoder, which would reject an unknown field.
	LegacyParallel bool `json:"parallel,omitempty"`
	Reference      bool `json:"reference,omitempty"`
	SkipHardware   bool `json:"skip_hardware,omitempty"`
	// Fabric selects the noise substrate; omitted means the paper's
	// SRAM fabric with the pre-fabric seed derivation, so journal
	// records written before fabrics existed replay identically.
	Fabric *FabricSpec `json:"fabric,omitempty"`
}

// FabricSpec is the wire form of the fabric selection. Decoding is
// strict (the submit decoder disallows unknown fields recursively), so
// a misspelled field here is a 400, not a silently ignored option.
type FabricSpec struct {
	// Kind names the substrate: "sram", "mram", "fefet" or "clean".
	Kind string `json:"kind"`
	// Seed pins the fabricated chip; 0 derives it from the solve seed.
	Seed uint64 `json:"seed,omitempty"`
}

// ToOptions maps the wire options onto cimsa.Options.
func (o OptionsSpec) ToOptions() cimsa.Options {
	opts := cimsa.Options{
		PMax:         o.PMax,
		Seed:         o.Seed,
		Mode:         o.Mode,
		Restarts:     o.Restarts,
		Workers:      o.Workers,
		Reference:    o.Reference,
		SkipHardware: o.SkipHardware,
	}
	if o.Workers == -1 {
		opts.Workers = cimsa.WorkersAuto
	}
	if o.Fabric != nil {
		opts.Fabric = o.Fabric.Kind
		opts.FabricSeed = o.Fabric.Seed
	}
	return opts
}

// TaskFromSpec resolves the spec's instance source (exactly one of
// name / tsplib / generate) under the size limits and binds it to the
// solve options.
func TaskFromSpec(spec *Spec, lim problem.Limits) (*Task, error) {
	sources := 0
	for _, set := range []bool{spec.Name != "", spec.TSPLIB != "", spec.Generate != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("specify exactly one of name, tsplib, generate (got %d)", sources)
	}
	var in *cimsa.Instance
	var err error
	switch {
	case spec.Name != "":
		in, err = cimsa.LoadNamed(spec.Name)
	case spec.TSPLIB != "":
		in, err = cimsa.LoadInstance(strings.NewReader(spec.TSPLIB))
	default:
		g := spec.Generate
		if g.N < 3 {
			return nil, fmt.Errorf("generate.n must be >= 3, got %d", g.N)
		}
		// Reject from the declared size, before synthesizing coordinates.
		if lim.MaxCities > 0 && g.N > lim.MaxCities {
			return nil, fmt.Errorf("generate.n %d exceeds the server limit %d", g.N, lim.MaxCities)
		}
		name := g.Name
		if name == "" {
			name = fmt.Sprintf("gen%d", g.N)
		}
		in = cimsa.GenerateInstance(name, g.N, g.Seed)
	}
	if err != nil {
		return nil, err
	}
	if lim.MaxCities > 0 && in.N() > lim.MaxCities {
		return nil, fmt.Errorf("instance has %d cities; this server accepts at most %d", in.N(), lim.MaxCities)
	}
	return New(in, spec.Options.ToOptions()), nil
}

// New binds an already-built instance to its options, bypassing the
// wire schema — the entry point for CLIs, tests and the fault-injection
// harness that hold a *cimsa.Instance.
func New(in *cimsa.Instance, opts cimsa.Options) *Task {
	return &Task{in: in, opts: opts}
}

// Task is one TSP solve: an instance plus a design point.
type Task struct {
	in   *cimsa.Instance
	opts cimsa.Options
}

// Problem implements problem.Task.
func (t *Task) Problem() string { return Name }

// Label implements problem.Task.
func (t *Task) Label() string { return t.in.Name }

// Size implements problem.Task (cities).
func (t *Task) Size() int { return t.in.N() }

// Instance exposes the bound instance (tests, harnesses).
func (t *Task) Instance() *cimsa.Instance { return t.in }

// Options exposes the bound solve options (tests, harnesses).
func (t *Task) Options() cimsa.Options { return t.opts }

// InstanceHash reuses the checkpoint subsystem's instance fingerprint —
// the same identity the on-disk snapshot format pins resumes to.
func (t *Task) InstanceHash() string {
	return fmt.Sprintf("%s:%016x", Name, checkpoint.InstanceHash(t.in))
}

// SolverVersion tags cached TSP results; bump it whenever the
// annealer's output for a fixed (instance, design point, seed) changes,
// so stale cache entries can never be served across a numerics change.
const SolverVersion = "tsp/v1"

// DesignHash folds every option that can change the solve's output —
// and nothing else. Workers is deliberately excluded:
// results are bit-identical at every worker count (enforced by the
// determinism tests), so they are execution detail, not design.
//
// The fabric's identity (kind, model parameters, implementation
// version) is folded via the registry, so the result cache can never
// serve a solve made under one substrate as another's: two jobs that
// differ only in fabric hash apart, and a fabric implementation bumping
// its Version invalidates exactly its own cached entries. An omitted
// fabric canonicalizes to the SRAM default ("" and "sram" hash equal),
// which keeps pre-fabric journal records aliasing their modern
// equivalents.
func (t *Task) DesignHash() string {
	h := problem.NewHasher(Name)
	h.String(SolverVersion)
	h.Int(int64(t.opts.PMax))
	h.Uint(t.opts.Seed)
	h.String(t.opts.Mode)
	h.Int(int64(t.opts.Restarts))
	h.Uint(boolBit(t.opts.Reference))
	h.Uint(boolBit(t.opts.SkipHardware))
	if f, err := noise.New(t.opts.Fabric, t.opts.FabricSeed); err != nil {
		// An unknown kind never reaches the solver (Validate rejects
		// it), but DesignHash must stay total; fold the raw name.
		h.String("fabric?" + t.opts.Fabric)
	} else {
		h.String(f.Kind())
		h.String(f.Params())
		h.String(f.Version())
	}
	return h.Sum()
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Validate checks the design point and the instance without solving.
func (t *Task) Validate() error {
	if err := t.opts.Validate(); err != nil {
		return err
	}
	return t.in.Validate()
}

// Solve runs the clustered annealer, threading the scheduler's
// progress and checkpoint hooks into cimsa.Options. The numerics are
// exactly the pre-registry serve path: same options, same checkpoint
// wiring, so served results stay bit-identical.
func (t *Task) Solve(ctx context.Context, run problem.Run) (*problem.Result, error) {
	opts := t.opts
	if run.Progress != nil {
		opts.Progress = run.Progress
	}
	if run.CheckpointDir != "" {
		opts.Checkpoint = cimsa.Checkpoint{
			Dir:         run.CheckpointDir,
			EveryEpochs: run.CheckpointEvery,
			Resume:      true,
			OnWrite:     run.OnCheckpointWrite,
			OnResume:    run.OnCheckpointResume,
		}
	}
	rep, err := cimsa.SolveContext(ctx, t.in, opts)
	if err != nil {
		return nil, err
	}
	return &problem.Result{
		Problem:    Name,
		Instance:   rep.Instance,
		N:          rep.N,
		Objective:  rep.Length,
		Quality:    rep.OptimalRatio,
		Iterations: rep.Solver.Iterations,
		Detail:     rep,
	}, nil
}
