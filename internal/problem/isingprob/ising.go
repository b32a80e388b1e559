// Package isingprob adapts the general Ising substrate
// (internal/ising + internal/anneal) to the problem registry, under
// two registered names: "ising" takes a spin glass directly (sparse
// couplings J, fields h) and "qubo" takes a QUBO matrix Q and maps it
// onto the same substrate with the standard x=(1+s)/2 change of
// variables. Both solve with Metropolis annealing by default or SCA
// (the STATICA-style synchronous update) on request.
//
// Index validation happens against the declared size before the dense
// N² coupling matrix is allocated or touched: ising.NewModel and SetJ
// panic on bad input by design, so nothing from the wire may reach
// them unchecked.
package isingprob

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"cimsa/internal/anneal"
	"cimsa/internal/ising"
	"cimsa/internal/problem"
	"cimsa/internal/rng"
)

// Name and QUBOName are the registry keys of the two problem types
// this package serves.
const (
	Name     = "ising"
	QUBOName = "qubo"
)

func init() {
	problem.Register(Type{})
	problem.Register(QUBOType{})
}

// Algorithm names accepted by the specs.
const (
	AlgoMetropolis = "metropolis"
	AlgoSCA        = "sca"
)

// CouplingSpec is one matrix entry. For "ising" it is an off-diagonal
// coupling J_ij (i != j); for "qubo" a Q_ij entry where i == j carries
// the linear term.
type CouplingSpec struct {
	I int     `json:"i"`
	J int     `json:"j"`
	V float64 `json:"v"`
}

// FieldSpec is one external-field entry h_i.
type FieldSpec struct {
	I int     `json:"i"`
	V float64 `json:"v"`
}

// GenerateSpec describes a deterministic random instance: for "ising"
// a ±1 spin glass with coupling density, for "qubo" a Q matrix with
// entries uniform in [-1, 1) at that density (diagonal included).
type GenerateSpec struct {
	Name    string  `json:"name,omitempty"`
	N       int     `json:"n"`
	Density float64 `json:"density"`
	Seed    uint64  `json:"seed"`
}

// Spec is the "ising" job payload: exactly one instance source (n with
// j/h lists, or generate) plus the annealing parameters.
type Spec struct {
	Name string `json:"name,omitempty"`
	// N with J (couplings) and H (fields) give the model explicitly.
	N int            `json:"n,omitempty"`
	J []CouplingSpec `json:"j,omitempty"`
	H []FieldSpec    `json:"h,omitempty"`
	// Generate synthesizes a ±1 spin glass deterministically.
	Generate *GenerateSpec `json:"generate,omitempty"`
	// Algorithm selects the backend: "metropolis" (default) or "sca".
	Algorithm string `json:"algorithm,omitempty"`
	// Sweeps is the sweep (metropolis) or step (sca) budget; defaults
	// follow the library (100 metropolis, 500 sca).
	Sweeps int `json:"sweeps,omitempty"`
	// Seed drives spin initialization and annealing.
	Seed uint64 `json:"seed,omitempty"`
}

// QUBOSpec is the "qubo" job payload.
type QUBOSpec struct {
	Name string `json:"name,omitempty"`
	// N with Q give the matrix explicitly; duplicate (i,j) entries sum,
	// and (i,j)/(j,i) address the same off-diagonal coefficient.
	N int            `json:"n,omitempty"`
	Q []CouplingSpec `json:"q,omitempty"`
	// Generate synthesizes a random Q deterministically.
	Generate  *GenerateSpec `json:"generate,omitempty"`
	Algorithm string        `json:"algorithm,omitempty"`
	Sweeps    int           `json:"sweeps,omitempty"`
	Seed      uint64        `json:"seed,omitempty"`
}

// Type registers "ising" with the problem registry.
type Type struct{}

// Name implements problem.Type.
func (Type) Name() string { return Name }

// NewTask decodes an ising payload (strict: unknown fields are errors).
func (Type) NewTask(payload json.RawMessage, lim problem.Limits) (problem.Task, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("ising payload: %w", err)
	}
	return TaskFromSpec(&spec, lim)
}

// QUBOType registers "qubo" with the problem registry.
type QUBOType struct{}

// Name implements problem.Type.
func (QUBOType) Name() string { return QUBOName }

// NewTask decodes a qubo payload (strict: unknown fields are errors).
func (QUBOType) NewTask(payload json.RawMessage, lim problem.Limits) (problem.Task, error) {
	var spec QUBOSpec
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("qubo payload: %w", err)
	}
	return QUBOTaskFromSpec(&spec, lim)
}

// checkSize vets a declared spin count against the cap before any
// N²-proportional allocation.
func checkSize(n int, lim problem.Limits) error {
	if n < 2 {
		return fmt.Errorf("n must be >= 2, got %d", n)
	}
	if lim.MaxSpins > 0 && n > lim.MaxSpins {
		return fmt.Errorf("system has %d spins; this server accepts at most %d", n, lim.MaxSpins)
	}
	return nil
}

// checkFinite rejects an instance whose doubled absolute weight sum
// overflows: the solve would report an infinite or NaN objective that
// no result frame can marshal.
func checkFinite(what string, total float64) error {
	if math.IsInf(2*total, 0) || math.IsNaN(total) {
		return fmt.Errorf("%s %g overflows (twice it must be finite)", what, total)
	}
	return nil
}

func checkAlgorithm(algo string) (string, error) {
	switch algo {
	case "", AlgoMetropolis:
		return AlgoMetropolis, nil
	case AlgoSCA:
		return AlgoSCA, nil
	default:
		return "", fmt.Errorf("unknown algorithm %q (metropolis | sca)", algo)
	}
}

func defaultSweeps(sweeps int, algo string) int {
	if sweeps > 0 {
		return sweeps
	}
	if algo == AlgoSCA {
		return 500
	}
	return 100
}

// TaskFromSpec builds and validates the Ising model under the limits.
func TaskFromSpec(spec *Spec, lim problem.Limits) (*Task, error) {
	algo, err := checkAlgorithm(spec.Algorithm)
	if err != nil {
		return nil, err
	}
	explicit := spec.N > 0 || len(spec.J) > 0 || len(spec.H) > 0
	switch {
	case explicit && spec.Generate != nil:
		return nil, fmt.Errorf("specify either n+j/h or generate, not both")
	case !explicit && spec.Generate == nil:
		return nil, fmt.Errorf("specify a model: n with j/h, or generate")
	}
	var m *ising.Model
	label := spec.Name
	if gen := spec.Generate; gen != nil {
		if err := checkSize(gen.N, lim); err != nil {
			return nil, fmt.Errorf("generate.%w", err)
		}
		if gen.Density < 0 || gen.Density > 1 {
			return nil, fmt.Errorf("generate.density must be in [0,1], got %g", gen.Density)
		}
		m = generateSpinGlass(gen.N, gen.Density, gen.Seed)
		if label == "" {
			label = gen.Name
		}
	} else {
		if err := checkSize(spec.N, lim); err != nil {
			return nil, err
		}
		// Every index is vetted against the declared size before the
		// dense matrix exists.
		for k, c := range spec.J {
			if c.I < 0 || c.I >= spec.N || c.J < 0 || c.J >= spec.N {
				return nil, fmt.Errorf("j[%d]: coupling (%d,%d) out of range 0..%d", k, c.I, c.J, spec.N-1)
			}
			if c.I == c.J {
				return nil, fmt.Errorf("j[%d]: self-coupling at %d (use qubo for linear terms, or h)", k, c.I)
			}
		}
		// Twice the absolute sum of the listed values bounds every field,
		// flip delta and energy of the model; it must be finite. (A
		// generated glass is bounded by construction.)
		var total float64
		for k, f := range spec.H {
			if f.I < 0 || f.I >= spec.N {
				return nil, fmt.Errorf("h[%d]: field index %d out of range 0..%d", k, f.I, spec.N-1)
			}
			total += math.Abs(f.V)
		}
		for _, c := range spec.J {
			total += math.Abs(c.V)
		}
		if err := checkFinite("j/h: absolute value sum", total); err != nil {
			return nil, err
		}
		m = ising.NewModel(spec.N)
		for _, c := range spec.J {
			m.SetJ(c.I, c.J, c.V)
		}
		for _, f := range spec.H {
			m.H[f.I] = f.V
		}
	}
	if label == "" {
		label = fmt.Sprintf("ising%d", m.N)
	}
	return &Task{
		problem:   Name,
		label:     label,
		m:         m,
		algorithm: algo,
		sweeps:    defaultSweeps(spec.Sweeps, algo),
		seed:      spec.Seed,
	}, nil
}

// QUBOTaskFromSpec maps the QUBO onto the Ising substrate with
// x_i = (1+s_i)/2: J_ij = -Q_ij/4 and h_i = -(Q_ii/2 + Σ_{j≠i} Q_ij/4)
// under this model's H = -ΣJσσ - Σhσ sign convention, so minimizing H
// minimizes xᵀQx. The objective is evaluated directly on the final
// bits via Q — no constant-offset bookkeeping on the wire.
func QUBOTaskFromSpec(spec *QUBOSpec, lim problem.Limits) (*Task, error) {
	algo, err := checkAlgorithm(spec.Algorithm)
	if err != nil {
		return nil, err
	}
	explicit := spec.N > 0 || len(spec.Q) > 0
	switch {
	case explicit && spec.Generate != nil:
		return nil, fmt.Errorf("specify either n+q or generate, not both")
	case !explicit && spec.Generate == nil:
		return nil, fmt.Errorf("specify a matrix: n with q, or generate")
	}
	var n int
	var entries []CouplingSpec
	label := spec.Name
	if gen := spec.Generate; gen != nil {
		if err := checkSize(gen.N, lim); err != nil {
			return nil, fmt.Errorf("generate.%w", err)
		}
		if gen.Density < 0 || gen.Density > 1 {
			return nil, fmt.Errorf("generate.density must be in [0,1], got %g", gen.Density)
		}
		n = gen.N
		entries = generateQUBO(gen.N, gen.Density, gen.Seed)
		if label == "" {
			label = gen.Name
		}
	} else {
		if err := checkSize(spec.N, lim); err != nil {
			return nil, err
		}
		n = spec.N
		for k, c := range spec.Q {
			if c.I < 0 || c.I >= n || c.J < 0 || c.J >= n {
				return nil, fmt.Errorf("q[%d]: entry (%d,%d) out of range 0..%d", k, c.I, c.J, n-1)
			}
		}
		entries = spec.Q
	}
	// Accumulate into an upper-triangular view: duplicates sum (in wire
	// order), and (i,j)/(j,i) fold together. The off-diagonal entries
	// are kept sorted by (i, j), so J, H and the objective are summed in
	// one fixed order: one request always builds the same bits, hashes
	// the same and hits the result cache.
	diag := make([]float64, n)
	off := make([]quboEntry, 0, len(entries))
	for _, c := range entries {
		i, j := c.I, c.J
		if i == j {
			diag[i] += c.V
			continue
		}
		if i > j {
			i, j = j, i
		}
		off = append(off, quboEntry{i, j, c.V})
	}
	sort.SliceStable(off, func(a, b int) bool {
		if off[a].i != off[b].i {
			return off[a].i < off[b].i
		}
		return off[a].j < off[b].j
	})
	merged := off[:0]
	for _, e := range off {
		if k := len(merged) - 1; k >= 0 && merged[k].i == e.i && merged[k].j == e.j {
			merged[k].v += e.v
			continue
		}
		merged = append(merged, e)
	}
	off = merged
	// Twice the absolute sum of Q bounds the objective and the Ising
	// image's fields, flip deltas and energies; it must be finite.
	var total float64
	for _, d := range diag {
		total += math.Abs(d)
	}
	for _, e := range off {
		total += math.Abs(e.v)
	}
	if err := checkFinite("q: absolute entry sum", total); err != nil {
		return nil, err
	}
	m := ising.NewModel(n)
	for _, e := range off {
		m.SetJ(e.i, e.j, -e.v/4)
	}
	for i := range m.H {
		m.H[i] = -diag[i] / 2
	}
	for _, e := range off {
		m.H[e.i] -= e.v / 4
		m.H[e.j] -= e.v / 4
	}
	if label == "" {
		label = fmt.Sprintf("qubo%d", n)
	}
	return &Task{
		problem:   QUBOName,
		label:     label,
		m:         m,
		algorithm: algo,
		sweeps:    defaultSweeps(spec.Sweeps, algo),
		seed:      spec.Seed,
		quboDiag:  diag,
		quboOff:   off,
	}, nil
}

// generateSpinGlass builds a ±J spin glass at the given coupling
// density, deterministically from the seed.
func generateSpinGlass(n int, density float64, seed uint64) *ising.Model {
	r := rng.New(seed)
	m := ising.NewModel(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < density {
				v := 1.0
				if r.Bool() {
					v = -1.0
				}
				m.SetJ(i, j, v)
			}
		}
	}
	return m
}

// generateQUBO builds random Q entries uniform in [-1, 1) at the given
// density over i <= j, deterministically from the seed.
func generateQUBO(n int, density float64, seed uint64) []CouplingSpec {
	r := rng.New(seed)
	var out []CouplingSpec
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if r.Float64() < density {
				out = append(out, CouplingSpec{I: i, J: j, V: 2*r.Float64() - 1})
			}
		}
	}
	return out
}

// Task is one Ising or QUBO solve on the shared spin substrate.
type Task struct {
	problem   string
	label     string
	m         *ising.Model
	algorithm string
	sweeps    int
	seed      uint64
	// quboDiag/quboOff hold the normalized Q for objective evaluation;
	// nil for plain ising tasks.
	quboDiag []float64
	quboOff  []quboEntry
}

// quboEntry is one folded upper-triangular Q entry (i < j).
type quboEntry struct {
	i, j int
	v    float64
}

// Problem implements problem.Task.
func (t *Task) Problem() string { return t.problem }

// Label implements problem.Task.
func (t *Task) Label() string { return t.label }

// Size implements problem.Task (spins).
func (t *Task) Size() int { return t.m.N }

// Model exposes the bound Ising model (tests, harnesses).
func (t *Task) Model() *ising.Model { return t.m }

// InstanceHash folds the concrete model — spin count plus the nonzero
// couplings and fields in canonical (row-major) order — so equivalent
// sparse lists hash identically however they were ordered on the wire.
// QUBO tasks additionally fold the diagonal (the Ising image alone
// would alias QUBOs differing only by the constant offset).
func (t *Task) InstanceHash() string {
	h := problem.NewHasher(t.problem)
	h.Int(int64(t.m.N))
	for i := 0; i < t.m.N; i++ {
		for j := i + 1; j < t.m.N; j++ {
			if v := t.m.J[i][j]; v != 0 {
				h.Int(int64(i))
				h.Int(int64(j))
				h.Float(v)
			}
		}
	}
	for i, v := range t.m.H {
		if v != 0 {
			h.Int(int64(i))
			h.Float(v)
		}
	}
	for _, v := range t.quboDiag {
		h.Float(v)
	}
	return h.Sum()
}

// SolverVersion tags cached Ising/QUBO results; bump it whenever
// either annealing engine's output for a fixed (model, algorithm,
// sweeps, seed) changes.
const SolverVersion = "ising/v1"

// DesignHash folds the run parameters (algorithm, sweeps, seed) plus
// the solver version; the problem name is already folded by NewHasher,
// which keeps an ising run and a qubo run over the same model distinct.
func (t *Task) DesignHash() string {
	h := problem.NewHasher(t.problem)
	h.String(SolverVersion)
	h.String(t.algorithm)
	h.Int(int64(t.sweeps))
	h.Uint(t.seed)
	return h.Sum()
}

// Validate implements problem.Task.
func (t *Task) Validate() error { return t.m.Validate() }

// IsingDetail is the result detail of an "ising" job.
type IsingDetail struct {
	// Spins is the final annealed configuration; Energy is its
	// Hamiltonian value (the job objective).
	Spins  []int8  `json:"spins"`
	Energy float64 `json:"energy"`
	// BestEnergy is the lowest energy seen during the run (metropolis
	// reports the final state, which the cold end of the schedule keeps
	// at or near the best; sca returns the best state, so the two match
	// there).
	BestEnergy float64 `json:"best_energy"`
	// Accepted/Proposed count Metropolis decisions (zero under sca).
	Accepted int `json:"accepted,omitempty"`
	Proposed int `json:"proposed,omitempty"`
}

// QUBODetail is the result detail of a "qubo" job.
type QUBODetail struct {
	// Bits is the final 0/1 assignment; Objective is xᵀQx (the job
	// objective); Energy is the Ising image's Hamiltonian value.
	Bits      []int8  `json:"bits"`
	Objective float64 `json:"objective"`
	Energy    float64 `json:"energy"`
}

// Solve anneals the model. Progress is coarse — one frame entering the
// anneal and one leaving it — because the spin engines have no epoch
// hooks.
func (t *Task) Solve(ctx context.Context, run problem.Run) (*problem.Result, error) {
	if run.Progress != nil {
		run.Progress(problem.Progress{Iters: t.sweeps})
	}
	var (
		spins  []int8
		detail IsingDetail
	)
	switch t.algorithm {
	case AlgoSCA:
		res, err := anneal.SCAContext(ctx, t.m, anneal.SCAOptions{Steps: t.sweeps, Seed: t.seed})
		if err != nil {
			return nil, err
		}
		spins = res.Spins
		detail = IsingDetail{Spins: spins, Energy: res.Energy, BestEnergy: res.Energy}
	default:
		spins = anneal.RandomSpins(t.m.N, t.seed)
		res, err := anneal.IsingContext(ctx, t.m, spins, anneal.Options{Sweeps: t.sweeps, Seed: t.seed})
		if err != nil {
			return nil, err
		}
		detail = IsingDetail{
			Spins:      spins,
			Energy:     t.m.Energy(spins),
			BestEnergy: res.Energy,
			Accepted:   res.Accepted,
			Proposed:   res.Proposed,
		}
	}
	result := &problem.Result{
		Problem:  t.problem,
		Instance: t.label,
		N:        t.m.N,
		// One update decision per spin per sweep under either backend.
		Iterations: t.sweeps * t.m.N,
	}
	if t.problem == QUBOName {
		bits := make([]int8, len(spins))
		for i, s := range spins {
			if s > 0 {
				bits[i] = 1
			}
		}
		obj := t.quboValue(bits)
		result.Objective = obj
		result.Detail = QUBODetail{Bits: bits, Objective: obj, Energy: detail.Energy}
	} else {
		result.Objective = detail.Energy
		result.Detail = detail
	}
	if run.Progress != nil {
		run.Progress(problem.Progress{Iter: t.sweeps, Iters: t.sweeps, Objective: result.Objective})
	}
	return result, nil
}

// quboValue evaluates xᵀQx on 0/1 bits from the normalized entries.
func (t *Task) quboValue(bits []int8) float64 {
	var v float64
	for i, d := range t.quboDiag {
		v += d * float64(bits[i])
	}
	for _, e := range t.quboOff {
		v += e.v * float64(bits[e.i]) * float64(bits[e.j])
	}
	return v
}
