package maxcut

import (
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	good := &Graph{N: 3, Edges: []Edge{{0, 1, 1}, {1, 2, 2}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Graph{
		{N: 1},
		{N: 3, Edges: []Edge{{0, 3, 1}}},
		{N: 3, Edges: []Edge{{1, 1, 1}}},
		{N: 3, Edges: []Edge{{0, 1, -1}}},
		{N: 3, Edges: []Edge{{0, 1, 1.7e308}, {1, 2, 1.7e308}}}, // total overflows
		{N: 2, Edges: []Edge{{0, 1, 1e308}}},                    // twice the total overflows
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad graph %d accepted", i)
		}
	}
}

func TestCutValueTriangle(t *testing.T) {
	g := &Graph{N: 3, Edges: []Edge{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}}}
	// Any split of a unit triangle cuts exactly 2 edges.
	if cut := g.CutValue([]int8{1, -1, -1}); cut != 2 {
		t.Fatalf("triangle cut = %v, want 2", cut)
	}
	if cut := g.CutValue([]int8{1, 1, 1}); cut != 0 {
		t.Fatalf("uncut triangle = %v", cut)
	}
}

func TestIsingIdentity(t *testing.T) {
	// Cut = W/2 - H for every assignment.
	g := Random(12, 0.4, 1)
	m, err := g.ToIsing()
	if err != nil {
		t.Fatal(err)
	}
	assigns := [][]int8{
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		{1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1},
		{-1, -1, -1, 1, 1, 1, -1, 1, -1, 1, 1, -1},
	}
	w := g.TotalWeight()
	for _, a := range assigns {
		cut := g.CutValue(a)
		h := m.Energy(a)
		if math.Abs(cut-(w/2-h)) > 1e-9 {
			t.Fatalf("identity violated: cut %v, W/2-H %v", cut, w/2-h)
		}
	}
}

// completeBipartite returns K_{a,b} with unit weights; its maximum cut
// is a*b (cut every edge).
func completeBipartite(a, b int) *Graph {
	g := &Graph{N: a + b}
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			g.Edges = append(g.Edges, Edge{U: u, V: v, W: 1})
		}
	}
	return g
}

func TestSolveBipartiteOptimal(t *testing.T) {
	// K_{5,6}: optimum cuts all 30 edges.
	g := completeBipartite(5, 6)
	res, err := Solve(g, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != 30 {
		t.Fatalf("bipartite cut %v, want 30", res.Cut)
	}
	if res.Ratio != 1 {
		t.Fatalf("bipartite ratio %v", res.Ratio)
	}
}

func TestSolveNearOptimalSmall(t *testing.T) {
	g := Random(14, 0.5, 2)
	opt := BruteForce(g)
	res, err := Solve(g, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut < 0.97*opt {
		t.Fatalf("annealed cut %v below 97%% of optimum %v", res.Cut, opt)
	}
	if res.Cut > opt+1e-9 {
		t.Fatalf("cut %v exceeds optimum %v (impossible)", res.Cut, opt)
	}
}

func TestSolveDeterministic(t *testing.T) {
	g := Random(20, 0.3, 4)
	a, err := Solve(g, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cut != b.Cut {
		t.Fatalf("solves differ: %v vs %v", a.Cut, b.Cut)
	}
}

func TestSolveRejectsBadGraph(t *testing.T) {
	if _, err := Solve(&Graph{N: 1}, 10, 1); err == nil {
		t.Fatal("bad graph accepted")
	}
}

func TestRandomGraphShape(t *testing.T) {
	g := Random(30, 0.5, 6)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	maxEdges := 30 * 29 / 2
	if len(g.Edges) < maxEdges/4 || len(g.Edges) > maxEdges*3/4 {
		t.Fatalf("density off: %d edges of %d possible", len(g.Edges), maxEdges)
	}
	// Deterministic.
	h := Random(30, 0.5, 6)
	if len(h.Edges) != len(g.Edges) {
		t.Fatal("random graph not deterministic")
	}
}

func TestBruteForceSmallKnown(t *testing.T) {
	// C_4 (4-cycle): optimal cut = 4; C_5: optimal = 4.
	c4 := &Graph{N: 4, Edges: []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}}}
	if got := BruteForce(c4); got != 4 {
		t.Fatalf("C4 optimum %v, want 4", got)
	}
	c5 := &Graph{N: 5, Edges: []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 0, 1}}}
	if got := BruteForce(c5); got != 4 {
		t.Fatalf("C5 optimum %v, want 4", got)
	}
}

func BenchmarkSolve100(b *testing.B) {
	g := Random(100, 0.2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(g, 50, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
