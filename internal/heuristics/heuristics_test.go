package heuristics

import (
	"math"
	"testing"

	"cimsa/internal/geom"
	"cimsa/internal/tsplib"
)

func testInstance(n int, style tsplib.Style, seed uint64) *tsplib.Instance {
	return tsplib.Generate("h-test", n, style, seed)
}

func TestBuildNeighborsBasic(t *testing.T) {
	in := testInstance(100, tsplib.StyleUniform, 1)
	nl := BuildNeighbors(in, 8)
	if nl.K != 8 {
		t.Fatalf("K = %d", nl.K)
	}
	for i, list := range nl.Lists {
		if len(list) != 8 {
			t.Fatalf("city %d has %d neighbours", i, len(list))
		}
		prev := -1.0
		for _, j := range list {
			if int(j) == i {
				t.Fatalf("city %d lists itself", i)
			}
			d := geom.Exact.Dist(in.Cities[i], in.Cities[j])
			if d < prev {
				t.Fatalf("city %d neighbour list unsorted", i)
			}
			prev = d
		}
	}
}

func TestBuildNeighborsCorrectAgainstBruteForce(t *testing.T) {
	in := testInstance(60, tsplib.StyleClustered, 2)
	nl := BuildNeighbors(in, 5)
	for i := 0; i < in.N(); i++ {
		// Brute-force nearest 5.
		type cd struct {
			j int
			d float64
		}
		var all []cd
		for j := 0; j < in.N(); j++ {
			if j != i {
				all = append(all, cd{j, geom.Exact.Dist(in.Cities[i], in.Cities[j])})
			}
		}
		for a := 0; a < len(all); a++ {
			for b := a + 1; b < len(all); b++ {
				if all[b].d < all[a].d || (all[b].d == all[a].d && all[b].j < all[a].j) {
					all[a], all[b] = all[b], all[a]
				}
			}
		}
		for k := 0; k < 5; k++ {
			if int(nl.Lists[i][k]) != all[k].j {
				// Equal distances may order differently; accept if the
				// distances match.
				got := geom.Exact.Dist(in.Cities[i], in.Cities[nl.Lists[i][k]])
				if math.Abs(got-all[k].d) > 1e-9 {
					t.Fatalf("city %d neighbour %d: got %d (d=%v), want %d (d=%v)",
						i, k, nl.Lists[i][k], got, all[k].j, all[k].d)
				}
			}
		}
	}
}

func TestBuildNeighborsClampsK(t *testing.T) {
	in := testInstance(5, tsplib.StyleUniform, 3)
	nl := BuildNeighbors(in, 50)
	if nl.K != 4 {
		t.Fatalf("K = %d, want 4", nl.K)
	}
	for i, list := range nl.Lists {
		if len(list) != 4 {
			t.Fatalf("city %d has %d neighbours, want 4", i, len(list))
		}
	}
}

func TestNearestNeighborValid(t *testing.T) {
	in := testInstance(200, tsplib.StylePCB, 4)
	nl := BuildNeighbors(in, 8)
	tr := NearestNeighbor(in, nl, 0)
	if err := tr.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	if tr[0] != 0 {
		t.Fatalf("tour does not start at requested city: %d", tr[0])
	}
}

func TestGreedyEdgeValidAndDecent(t *testing.T) {
	in := testInstance(300, tsplib.StyleClustered, 5)
	nl := BuildNeighbors(in, 10)
	greedy := GreedyEdge(in, nl)
	if err := greedy.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	nn := NearestNeighbor(in, nl, 0)
	// Greedy edge is typically at least as good as NN; allow 10% slack.
	if greedy.Length(in) > 1.1*nn.Length(in) {
		t.Fatalf("greedy %v much worse than NN %v", greedy.Length(in), nn.Length(in))
	}
}

func TestSpaceFillingValid(t *testing.T) {
	in := testInstance(500, tsplib.StyleGeographic, 6)
	tr := SpaceFilling(in)
	if err := tr.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
}

func TestTwoOptImproves(t *testing.T) {
	in := testInstance(300, tsplib.StyleUniform, 7)
	nl := BuildNeighbors(in, 8)
	tr := SpaceFilling(in)
	before := tr.Length(in)
	tr = TwoOpt(in, nl, tr, 0)
	after := tr.Length(in)
	if err := tr.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Fatalf("2-opt made tour worse: %v -> %v", before, after)
	}
	if after > 0.98*before {
		t.Fatalf("2-opt barely improved Hilbert tour: %v -> %v", before, after)
	}
}

func TestTwoOptConverges(t *testing.T) {
	in := testInstance(150, tsplib.StyleUniform, 8)
	nl := BuildNeighbors(in, 8)
	tr := TwoOpt(in, nl, SpaceFilling(in), 0)
	l1 := tr.Length(in)
	tr = TwoOpt(in, nl, tr, 0)
	if l2 := tr.Length(in); l2 != l1 {
		t.Fatalf("second 2-opt run changed length %v -> %v", l1, l2)
	}
}

func TestTwoOptTinyTour(t *testing.T) {
	in := testInstance(3, tsplib.StyleUniform, 9)
	nl := BuildNeighbors(in, 2)
	tr := TwoOpt(in, nl, SpaceFilling(in), 0)
	if err := tr.Validate(3); err != nil {
		t.Fatal(err)
	}
}

func TestOrOptImprovesOrKeeps(t *testing.T) {
	in := testInstance(300, tsplib.StyleClustered, 10)
	nl := BuildNeighbors(in, 8)
	tr := TwoOpt(in, nl, NearestNeighbor(in, nl, 0), 0)
	before := tr.Length(in)
	tr = OrOpt(in, nl, tr, 0)
	after := tr.Length(in)
	if err := tr.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	if after > before+1e-9 {
		t.Fatalf("or-opt made tour worse: %v -> %v", before, after)
	}
}

func TestExactSmall(t *testing.T) {
	// Square + center: optimal must visit center between two corners...
	// actually just verify against brute force on a known instance.
	in := &tsplib.Instance{
		Name:   "sq4",
		Metric: geom.Euclid2D,
		Cities: []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}},
	}
	tr, length, err := Exact(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(4); err != nil {
		t.Fatal(err)
	}
	if length != 40 {
		t.Fatalf("optimal square tour = %v, want 40", length)
	}
	if got := tr.Length(in); got != length {
		t.Fatalf("reported length %v but tour measures %v", length, got)
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	in := testInstance(8, tsplib.StyleUniform, 11)
	tr, hk, err := Exact(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(8); err != nil {
		t.Fatal(err)
	}
	bf := bruteForce(in)
	if math.Abs(hk-bf) > 1e-9 {
		t.Fatalf("Held-Karp %v != brute force %v", hk, bf)
	}
}

func bruteForce(in *tsplib.Instance) float64 {
	n := in.N()
	perm := make([]int, n-1)
	for i := range perm {
		perm[i] = i + 1
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			length := in.Dist(0, perm[0])
			for i := 1; i < len(perm); i++ {
				length += in.Dist(perm[i-1], perm[i])
			}
			length += in.Dist(perm[len(perm)-1], 0)
			if length < best {
				best = length
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

func TestExactRejectsBigAndTiny(t *testing.T) {
	big := testInstance(maxExactN+1, tsplib.StyleUniform, 12)
	if _, _, err := Exact(big); err == nil {
		t.Fatal("Exact accepted oversized instance")
	}
}

func TestReferenceNearOptimalOnSmall(t *testing.T) {
	in := testInstance(12, tsplib.StyleUniform, 13)
	_, opt, err := Exact(in)
	if err != nil {
		t.Fatal(err)
	}
	refTour, ref := Reference(in)
	if err := refTour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	if ref < opt-1e-9 {
		t.Fatalf("reference %v beats optimum %v (impossible)", ref, opt)
	}
	if ref > 1.15*opt {
		t.Fatalf("reference %v more than 15%% above optimum %v", ref, opt)
	}
}

func TestReferenceQualityMedium(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-size quality check")
	}
	in := testInstance(1000, tsplib.StyleUniform, 14)
	refTour, ref := Reference(in)
	if err := refTour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	// Beardwood-Halton-Hammersley: L* ~ 0.7124 * sqrt(n*A) for uniform
	// points. The reference solver should be within ~12% of that.
	b := geom.Bounds(in.Cities)
	bhh := 0.7124 * math.Sqrt(float64(in.N())*b.Width()*b.Height())
	if ref > 1.15*bhh {
		t.Fatalf("reference %v too far above BHH estimate %v", ref, bhh)
	}
	if ref < 0.85*bhh {
		t.Fatalf("reference %v suspiciously below BHH estimate %v", ref, bhh)
	}
}

func TestReferenceDeterministic(t *testing.T) {
	in := testInstance(200, tsplib.StylePCB, 15)
	_, a := Reference(in)
	_, b := Reference(in)
	if a != b {
		t.Fatalf("reference not deterministic: %v vs %v", a, b)
	}
}

func BenchmarkBuildNeighbors1k(b *testing.B) {
	in := testInstance(1000, tsplib.StyleUniform, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildNeighbors(in, 8)
	}
}

func BenchmarkTwoOpt1k(b *testing.B) {
	in := testInstance(1000, tsplib.StyleUniform, 1)
	nl := BuildNeighbors(in, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := SpaceFilling(in)
		b.StartTimer()
		TwoOpt(in, nl, tr, 0)
	}
}

func TestOneTreeLowerBoundsOptimal(t *testing.T) {
	// The 1-tree bound must never exceed the optimal tour length.
	for seed := uint64(0); seed < 5; seed++ {
		in := testInstance(10, tsplib.StyleUniform, 40+seed)
		_, opt, err := Exact(in)
		if err != nil {
			t.Fatal(err)
		}
		lb := OneTreeLowerBound(in)
		if lb > opt+1e-9 {
			t.Fatalf("seed %d: bound %v exceeds optimum %v", seed, lb, opt)
		}
		if lb < 0.5*opt {
			t.Fatalf("seed %d: bound %v uselessly loose vs optimum %v", seed, lb, opt)
		}
	}
}

func TestOneTreeBracketsReference(t *testing.T) {
	// lower bound <= reference length; and the reference should be within
	// ~40% of the bound on geometric instances.
	in := testInstance(400, tsplib.StyleClustered, 45)
	lb := OneTreeLowerBound(in)
	_, ref := Reference(in)
	if lb > ref {
		t.Fatalf("bound %v above reference %v", lb, ref)
	}
	if ref > 1.4*lb {
		t.Fatalf("reference %v more than 40%% above 1-tree bound %v", ref, lb)
	}
}

func TestOneTreeDegenerate(t *testing.T) {
	in := testInstance(3, tsplib.StyleUniform, 46)
	lb := OneTreeLowerBound(in)
	// For n=3 the 1-tree IS the unique tour.
	tourLen := in.Dist(0, 1) + in.Dist(1, 2) + in.Dist(2, 0)
	if math.Abs(lb-tourLen) > 1e-9 {
		t.Fatalf("3-city bound %v, tour %v", lb, tourLen)
	}
}
