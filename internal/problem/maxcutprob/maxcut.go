// Package maxcutprob adapts internal/maxcut to the problem registry:
// it decodes the "maxcut" wire payload (an explicit weighted edge list
// or a deterministic random-graph recipe), enforces the server's
// vertex/edge caps before any size-proportional allocation, and solves
// with the generic Ising Metropolis engine — bit-identical to calling
// maxcut.Solve directly with the same sweeps and seed.
package maxcutprob

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"cimsa/internal/maxcut"
	"cimsa/internal/problem"
)

// Name is the registry key for the Max-Cut problem type.
const Name = "maxcut"

func init() { problem.Register(Type{}) }

// Type registers Max-Cut with the problem registry.
type Type struct{}

// Name implements problem.Type.
func (Type) Name() string { return Name }

// NewTask decodes a maxcut payload (strict: unknown fields are errors).
func (Type) NewTask(payload json.RawMessage, lim problem.Limits) (problem.Task, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("maxcut payload: %w", err)
	}
	return TaskFromSpec(&spec, lim)
}

// Spec is the maxcut job payload: exactly one graph source (n+edges or
// generate) plus the annealing parameters.
type Spec struct {
	// Name labels the instance for status displays.
	Name string `json:"name,omitempty"`
	// N and Edges give the graph explicitly.
	N     int        `json:"n,omitempty"`
	Edges []EdgeSpec `json:"edges,omitempty"`
	// Generate synthesizes a G(n, density) graph deterministically.
	Generate *GenerateSpec `json:"generate,omitempty"`
	// Sweeps is the Metropolis sweep count (default 200).
	Sweeps int `json:"sweeps,omitempty"`
	// Seed drives spin initialization and annealing.
	Seed uint64 `json:"seed,omitempty"`
}

// EdgeSpec is one undirected weighted edge; a missing weight means 1
// (unweighted-graph convention).
type EdgeSpec struct {
	U int      `json:"u"`
	V int      `json:"v"`
	W *float64 `json:"w,omitempty"`
}

// GenerateSpec describes a deterministic G(n, density) random graph
// with uniform weights in [0.5, 1.5) — maxcut.Random's recipe.
type GenerateSpec struct {
	Name    string  `json:"name,omitempty"`
	N       int     `json:"n"`
	Density float64 `json:"density"`
	Seed    uint64  `json:"seed"`
}

// TaskFromSpec builds and validates the graph under the size limits.
func TaskFromSpec(spec *Spec, lim problem.Limits) (*Task, error) {
	explicit := spec.N > 0 || len(spec.Edges) > 0
	switch {
	case explicit && spec.Generate != nil:
		return nil, fmt.Errorf("specify either n+edges or generate, not both")
	case !explicit && spec.Generate == nil:
		return nil, fmt.Errorf("specify a graph: n+edges, or generate")
	}
	var g *maxcut.Graph
	label := spec.Name
	if gen := spec.Generate; gen != nil {
		if gen.N < 2 {
			return nil, fmt.Errorf("generate.n must be >= 2, got %d", gen.N)
		}
		if lim.MaxVertices > 0 && gen.N > lim.MaxVertices {
			return nil, fmt.Errorf("generate.n %d exceeds the server vertex limit %d", gen.N, lim.MaxVertices)
		}
		if gen.Density < 0 || gen.Density > 1 {
			return nil, fmt.Errorf("generate.density must be in [0,1], got %g", gen.Density)
		}
		// The expected edge count is known before generating; reject a
		// recipe that would blow the edge cap instead of materializing it.
		if lim.MaxEdges > 0 {
			if expect := gen.Density * float64(gen.N) * float64(gen.N-1) / 2; expect > float64(lim.MaxEdges) {
				return nil, fmt.Errorf("generate expects ~%.0f edges; this server accepts at most %d", expect, lim.MaxEdges)
			}
		}
		g = maxcut.Random(gen.N, gen.Density, gen.Seed)
		if label == "" {
			label = gen.Name
		}
	} else {
		// Caps come from the declared sizes, before building the graph.
		if lim.MaxVertices > 0 && spec.N > lim.MaxVertices {
			return nil, fmt.Errorf("graph has %d vertices; this server accepts at most %d", spec.N, lim.MaxVertices)
		}
		if lim.MaxEdges > 0 && len(spec.Edges) > lim.MaxEdges {
			return nil, fmt.Errorf("graph has %d edges; this server accepts at most %d", len(spec.Edges), lim.MaxEdges)
		}
		g = &maxcut.Graph{N: spec.N, Edges: make([]maxcut.Edge, len(spec.Edges))}
		for i, e := range spec.Edges {
			w := 1.0
			if e.W != nil {
				w = *e.W
			}
			g.Edges[i] = maxcut.Edge{U: e.U, V: e.V, W: w}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if label == "" {
		label = fmt.Sprintf("maxcut%d", g.N)
	}
	sweeps := spec.Sweeps
	if sweeps <= 0 {
		sweeps = 200
	}
	return &Task{g: g, label: label, sweeps: sweeps, seed: spec.Seed}, nil
}

// Task is one Max-Cut solve.
type Task struct {
	g      *maxcut.Graph
	label  string
	sweeps int
	seed   uint64
}

// Problem implements problem.Task.
func (t *Task) Problem() string { return Name }

// Label implements problem.Task.
func (t *Task) Label() string { return t.label }

// Size implements problem.Task (vertices).
func (t *Task) Size() int { return t.g.N }

// Graph exposes the bound graph (tests, harnesses).
func (t *Task) Graph() *maxcut.Graph { return t.g }

// InstanceHash folds the concrete graph — vertex count and the edge
// list in order — so a generate recipe and the explicit graph it
// expands to hash identically.
func (t *Task) InstanceHash() string {
	h := problem.NewHasher(Name)
	h.Int(int64(t.g.N))
	for _, e := range t.g.Edges {
		h.Int(int64(e.U))
		h.Int(int64(e.V))
		h.Float(e.W)
	}
	return h.Sum()
}

// SolverVersion tags cached Max-Cut results; bump it whenever the
// Metropolis engine's output for a fixed (graph, sweeps, seed) changes.
const SolverVersion = "maxcut/v1"

// DesignHash folds the run parameters (sweeps, seed) plus the solver
// version — the graph itself lives in InstanceHash.
func (t *Task) DesignHash() string {
	h := problem.NewHasher(Name)
	h.String(SolverVersion)
	h.Int(int64(t.sweeps))
	h.Uint(t.seed)
	return h.Sum()
}

// Validate implements problem.Task.
func (t *Task) Validate() error { return t.g.Validate() }

// Solve anneals the graph. Progress is coarse — one frame entering the
// anneal and one leaving it — because the Metropolis engine has no
// epoch hooks; the frames carry the sweep budget and the final cut.
func (t *Task) Solve(ctx context.Context, run problem.Run) (*problem.Result, error) {
	if run.Progress != nil {
		run.Progress(problem.Progress{Iters: t.sweeps})
	}
	res, err := maxcut.SolveContext(ctx, t.g, t.sweeps, t.seed)
	if err != nil {
		return nil, err
	}
	if run.Progress != nil {
		run.Progress(problem.Progress{Iter: t.sweeps, Iters: t.sweeps, Objective: res.Cut})
	}
	return &problem.Result{
		Problem:   Name,
		Instance:  t.label,
		N:         t.g.N,
		Objective: res.Cut,
		Quality:   res.Ratio,
		// One Metropolis proposal per spin per sweep.
		Iterations: t.sweeps * t.g.N,
		Detail:     res,
	}, nil
}
