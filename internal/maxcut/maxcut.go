// Package maxcut implements the Max-Cut problem on weighted graphs —
// the benchmark every SOTA annealer in Table III is evaluated on. It
// exists to put the paper's comparison in context: Max-Cut needs only N
// spins for N vertices (versus N² for TSP), which is why the paper
// normalizes Table III by functionally equivalent weight bits. The
// solver maps Max-Cut onto the generic Ising substrate and anneals it
// with the same machinery the TSP baselines use.
package maxcut

import (
	"context"
	"fmt"
	"math"

	"cimsa/internal/anneal"
	"cimsa/internal/ising"
	"cimsa/internal/rng"
)

// Edge is an undirected weighted edge.
type Edge struct {
	U, V int
	W    float64
}

// Graph is a weighted undirected graph.
type Graph struct {
	N     int
	Edges []Edge
}

// Validate checks vertex ranges and non-negative weights (Max-Cut with
// negative weights is well-defined but none of the Table III chips use
// them; rejecting keeps invariants simple). Twice the total weight must
// be finite, which keeps every field, flip delta, energy and cut finite.
func (g *Graph) Validate() error {
	if g.N < 2 {
		return fmt.Errorf("maxcut: graph needs >= 2 vertices, got %d", g.N)
	}
	var total float64
	for _, e := range g.Edges {
		total += e.W
		if e.U < 0 || e.U >= g.N || e.V < 0 || e.V >= g.N {
			return fmt.Errorf("maxcut: edge (%d,%d) out of range", e.U, e.V)
		}
		if e.U == e.V {
			return fmt.Errorf("maxcut: self-loop at %d", e.U)
		}
		if e.W < 0 {
			return fmt.Errorf("maxcut: negative weight on (%d,%d)", e.U, e.V)
		}
	}
	if math.IsInf(2*total, 0) || math.IsNaN(total) {
		return fmt.Errorf("maxcut: total edge weight %g overflows (twice it must be finite)", total)
	}
	return nil
}

// TotalWeight is the sum of edge weights.
func (g *Graph) TotalWeight() float64 {
	var w float64
	for _, e := range g.Edges {
		w += e.W
	}
	return w
}

// CutValue evaluates the cut of a ±1 partition assignment.
func (g *Graph) CutValue(assign []int8) float64 {
	var cut float64
	for _, e := range g.Edges {
		if assign[e.U] != assign[e.V] {
			cut += e.W
		}
	}
	return cut
}

// ToIsing maps Max-Cut to the Ising model: with J_uv = -w_uv/2 the
// Hamiltonian satisfies Cut = W/2 - H, so minimizing energy maximizes
// the cut.
func (g *Graph) ToIsing() (*ising.Model, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := ising.NewModel(g.N)
	for _, e := range g.Edges {
		m.SetJ(e.U, e.V, m.J[e.U][e.V]-e.W/2)
	}
	return m, nil
}

// Random generates a G(n, density) graph with uniform weights in [0.5,
// 1.5), deterministically from the seed.
func Random(n int, density float64, seed uint64) *Graph {
	r := rng.New(seed)
	g := &Graph{N: n}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < density {
				g.Edges = append(g.Edges, Edge{U: u, V: v, W: 0.5 + r.Float64()})
			}
		}
	}
	return g
}

// Result reports a Max-Cut solve. The json tags are its wire shape:
// it is served verbatim as a maxcut job's result detail.
type Result struct {
	Assign []int8  `json:"assign"`
	Cut    float64 `json:"cut"`
	// Ratio is Cut / TotalWeight (1.0 means every edge cut — only
	// bipartite graphs achieve it).
	Ratio float64 `json:"ratio"`
}

// Solve anneals the graph with the generic Ising Metropolis engine.
func Solve(g *Graph, sweeps int, seed uint64) (Result, error) {
	return SolveContext(context.Background(), g, sweeps, seed)
}

// SolveContext is Solve with cooperative cancellation, checked at sweep
// boundaries without consuming randomness: an uncancelled run is
// bit-identical to Solve. On cancellation it returns ctx.Err() and no
// result.
func SolveContext(ctx context.Context, g *Graph, sweeps int, seed uint64) (Result, error) {
	m, err := g.ToIsing()
	if err != nil {
		return Result{}, err
	}
	spins := anneal.RandomSpins(g.N, seed)
	if sweeps <= 0 {
		sweeps = 200
	}
	// Temperature scaled to typical edge weight.
	maxW := 0.0
	for _, e := range g.Edges {
		if e.W > maxW {
			maxW = e.W
		}
	}
	if maxW == 0 {
		maxW = 1
	}
	if _, err := anneal.IsingContext(ctx, m, spins, anneal.Options{
		Sweeps:   sweeps,
		Seed:     seed,
		Schedule: anneal.Geometric{Start: 2 * maxW, End: maxW / 100},
	}); err != nil {
		return Result{}, err
	}
	cut := g.CutValue(spins)
	res := Result{Assign: spins, Cut: cut}
	if tw := g.TotalWeight(); tw > 0 {
		res.Ratio = cut / tw
	}
	return res, nil
}

// BruteForce finds the optimal cut for graphs up to 22 vertices (tests).
func BruteForce(g *Graph) float64 {
	if g.N > 22 {
		panic("maxcut: brute force limited to 22 vertices")
	}
	best := 0.0
	assign := make([]int8, g.N)
	for mask := 0; mask < 1<<(g.N-1); mask++ { // fix vertex N-1's side
		for i := 0; i < g.N-1; i++ {
			if mask&(1<<i) != 0 {
				assign[i] = 1
			} else {
				assign[i] = -1
			}
		}
		assign[g.N-1] = -1
		if cut := g.CutValue(assign); cut > best {
			best = cut
		}
	}
	return best
}
