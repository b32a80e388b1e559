// Package problem defines the solver-service abstraction that turns the
// repository's problem libraries (clustered TSP annealing, Max-Cut,
// general Ising/QUBO) into interchangeable backends behind one job
// schema. The paper frames the clustered annealer as a general
// combinatorial-optimization engine — TSP is just one mapping onto the
// Ising substrate — and this package is where that generality becomes
// an API: each problem type registers a parser (untrusted wire payload
// → validated Task) and every Task solves under the same contract
// (context cancellation, progress events, deterministic seeds, a
// canonical instance hash for caching and sharding).
package problem

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"sort"
	"sync"

	"cimsa/internal/clustered"
)

// Progress is one solver progress notification. All problem types share
// the clustered solver's event shape: generic fields (Iter/Iters,
// Objective) carry sweep-granular progress for spin-based solvers, and
// the TSP-specific fields (Level, Clusters) stay zero there.
type Progress = clustered.ProgressEvent

// Run carries the per-run hooks a scheduler injects into a solve. All
// fields are optional; a Task must solve correctly with the zero Run.
type Run struct {
	// Progress receives solver progress events on the solve goroutine;
	// it must return quickly and only observe.
	Progress func(Progress)
	// CheckpointDir, when non-empty, asks the backend to persist
	// resumable snapshots there and to resume from an existing one.
	// Backends without durable-snapshot support ignore it.
	CheckpointDir string
	// CheckpointEvery throttles snapshots to one per that many epochs.
	CheckpointEvery int
	// OnCheckpointWrite / OnCheckpointResume observe checkpoint
	// activity (for metrics); called on the solve goroutine.
	OnCheckpointWrite  func(path string)
	OnCheckpointResume func(path string)
}

// Result is the problem-agnostic solve outcome. Detail carries the full
// problem-specific report (the wire "report" payload); the scalar
// fields are what schedulers, metrics and status pages need without
// knowing the problem type.
type Result struct {
	// Problem is the registry type name that produced this result.
	Problem string `json:"problem"`
	// Instance labels the solved instance.
	Instance string `json:"instance"`
	// N is the instance size in the problem's natural unit.
	N int `json:"n"`
	// Objective is the headline solution value: tour length for TSP,
	// cut weight for Max-Cut, best energy for Ising, best value for
	// QUBO. Its direction (minimize/maximize) is per-problem.
	Objective float64 `json:"objective"`
	// Quality is an optional normalized score (TSP: ratio vs the
	// classical reference; Max-Cut: cut / total weight). Zero = unset.
	Quality float64 `json:"quality,omitempty"`
	// Iterations counts solver iterations, for throughput metrics.
	Iterations int `json:"iterations,omitempty"`
	// Detail is the full problem-specific report.
	Detail any `json:"detail,omitempty"`
}

// Task is one validated, solvable unit: an instance bound to its solve
// parameters. Tasks are immutable after construction and owned by the
// scheduler once submitted.
type Task interface {
	// Problem is the registry type name ("tsp", "maxcut", "ising", ...).
	Problem() string
	// Label names the instance for status displays.
	Label() string
	// Size is the instance size in the problem's natural unit
	// (cities, vertices, spins).
	Size() int
	// InstanceHash is a canonical content hash of the instance — equal
	// instances hash equal regardless of how they were submitted. It
	// excludes the solve parameters (seed, sweeps): it identifies the
	// problem, not the run.
	InstanceHash() string
	// DesignHash is a canonical hash of the run: every solve parameter
	// that can change the result (seed, sweeps, mode, restarts, ...)
	// plus a per-backend solver-version tag, and nothing else —
	// execution knobs that are bit-identical by construction (worker
	// count, parallel mode) are excluded. (InstanceHash, DesignHash)
	// therefore identifies a solve's output exactly, which is what
	// makes exact-match result caching correct; bumping a backend's
	// version tag invalidates its cached results across releases.
	DesignHash() string
	// Validate checks the instance and parameters without solving.
	Validate() error
	// Solve runs the task. Cancellation via ctx is observed at solver
	// iteration boundaries and consumes no randomness: a run whose
	// context is never cancelled is bit-identical to one solved without
	// a context.
	Solve(ctx context.Context, run Run) (*Result, error)
}

// Limits bounds untrusted instance sizes, enforced by Type.NewTask
// before any size-proportional allocation (a hostile "n": 1e9 must be
// rejected from the declared size, not discovered by OOM). Zero values
// mean unlimited.
type Limits struct {
	// MaxCities caps TSP instances (the -max-n server flag).
	MaxCities int
	// MaxVertices and MaxEdges cap Max-Cut graphs.
	MaxVertices int
	MaxEdges    int
	// MaxSpins caps Ising/QUBO systems (the dense coupling matrix is
	// N², so this is the most allocation-sensitive cap).
	MaxSpins int
}

// Type is one registered problem type: a named parser from the wire
// payload to a Task.
type Type interface {
	// Name is the registry key and the job schema's "problem" value.
	Name() string
	// NewTask decodes and validates this type's request payload
	// (strict: unknown fields are errors, so clients learn about typos
	// instead of silently solving defaults) under the given limits.
	NewTask(payload json.RawMessage, lim Limits) (Task, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Type{}
)

// Register adds a problem type; duplicate names panic (a wiring bug).
func Register(t Type) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[t.Name()]; dup {
		panic(fmt.Sprintf("problem: duplicate registration of %q", t.Name()))
	}
	registry[t.Name()] = t
}

// Lookup returns the registered type by name.
func Lookup(name string) (Type, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	t, ok := registry[name]
	return t, ok
}

// Names lists the registered problem types, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Hasher builds a canonical instance hash: adapters feed it the fields
// that define instance identity in a fixed order and call Sum. Floats
// are hashed by IEEE-754 bit pattern, so hashes are exact, not
// approximate.
type Hasher struct {
	problem string
	h       hash.Hash
	// buf stages one fixed-width value; a local array passed to the
	// hash.Hash interface would escape, costing one allocation per
	// folded value (three per coupling of a large instance).
	buf [8]byte
}

// NewHasher starts a hash for one problem type; the type name is part
// of the digest, so identical bytes under different problems never
// collide.
func NewHasher(problem string) *Hasher {
	h := &Hasher{problem: problem, h: sha256.New()}
	h.String(problem)
	return h
}

// Int folds a signed integer into the hash.
func (h *Hasher) Int(v int64) { h.Uint(uint64(v)) }

// Uint folds an unsigned integer into the hash.
func (h *Hasher) Uint(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.h.Write(h.buf[:])
}

// Float folds a float64 by bit pattern.
func (h *Hasher) Float(v float64) { h.Uint(math.Float64bits(v)) }

// String folds a length-prefixed string (length-prefixing keeps field
// boundaries unambiguous).
func (h *Hasher) String(s string) {
	h.Uint(uint64(len(s)))
	h.h.Write([]byte(s))
}

// Sum returns "<problem>:<hex digest>".
func (h *Hasher) Sum() string {
	return h.problem + ":" + hex.EncodeToString(h.h.Sum(nil))
}
