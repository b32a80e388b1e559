package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"cimsa/internal/geom"
	"cimsa/internal/tsplib"
)

// refSegmenter is the straightforward segmentation DP the production
// segmenter must reproduce bit for bit: path prefix sums, full best,
// count and choice tables filled by every probe, and each candidate's
// intra-segment length computed inside the probe.
type refSegmenter struct {
	pMax   int
	prefix []float64
	best   []float64
	count  []int
	choice []int
}

func newRefSegmenter(sorted []*Node, pMax int) *refSegmenter {
	n := len(sorted)
	prefix := make([]float64, n+1)
	for i := 1; i < n; i++ {
		prefix[i+1] = prefix[i] + geom.Exact.Dist(sorted[i-1].Centroid, sorted[i].Centroid)
	}
	return &refSegmenter{pMax: pMax, prefix: prefix, best: make([]float64, n+1), count: make([]int, n+1), choice: make([]int, n+1)}
}

func (s *refSegmenter) run(lambda float64) int {
	n := len(s.prefix) - 1
	for i := 1; i <= n; i++ {
		b, c, ch := math.Inf(1), 0, 0
		for sz := 1; sz <= min(s.pMax, i); sz++ {
			intra := s.prefix[i] - s.prefix[i-sz+1]
			cost := s.best[i-sz] + intra + lambda
			if cost < b {
				b, c, ch = cost, s.count[i-sz]+1, sz
			}
		}
		s.best[i], s.count[i], s.choice[i] = b, c, ch
	}
	return s.count[n]
}

func (s *refSegmenter) sizes() []int {
	n := len(s.prefix) - 1
	sizes := make([]int, s.count[n])
	for i, k := n, len(sizes)-1; i > 0; i, k = i-s.choice[i], k-1 {
		sizes[k] = s.choice[i]
	}
	return sizes
}

// refTargetSizes is targetSizes over the reference DP.
func refTargetSizes(sorted []*Node, maxSize, target int) []int {
	n := len(sorted)
	target = max(target, (n+maxSize-1)/maxSize)
	seg := newRefSegmenter(sorted, maxSize)
	lo, hi := 0.0, seg.prefix[n]+1
	for iter := 0; iter < 50; iter++ {
		mid := (lo + hi) / 2
		if seg.run(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	seg.run(hi)
	return seg.sizes()
}

// segmentInputs returns named element sequences covering the shapes a
// level can take: random and generated point sets, coincident points
// (every intra length 0), collinear runs with repeats, and every size
// from 3 to 12.
func segmentInputs() map[string][]*Node {
	r := rand.New(rand.NewPCG(3, 4))
	nodes := func(pts []geom.Point) []*Node {
		out := make([]*Node, len(pts))
		for i, p := range pts {
			out[i] = &Node{City: i, Centroid: p, Leaves: 1}
		}
		return out
	}
	random := func(n int, scale float64) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: r.Float64() * scale, Y: r.Float64() * scale}
		}
		return pts
	}
	in := map[string][]*Node{
		"random-500":  nodes(random(500, 1000)),
		"random-2000": nodes(random(2000, 1)),
		"generated":   nodes(cities(1500, tsplib.StyleClustered, 7)),
	}
	same := make([]geom.Point, 40)
	for i := range same {
		same[i] = geom.Point{X: 5, Y: 5}
	}
	in["coincident"] = nodes(same)
	line := make([]geom.Point, 300)
	for i := range line {
		line[i] = geom.Point{X: float64(i % 17), Y: 3}
	}
	in["collinear"] = nodes(line)
	for n := 3; n <= 12; n++ {
		in[fmt.Sprintf("small-%d", n)] = nodes(random(n, 10))
	}
	return in
}

// TestSegmenterMatchesReference pins the probe DP to the reference: the
// probe count for random and boundary penalties, the recorded segment
// sizes, and targetSizes' output for several targets, at pMax 2, 3, 4
// and 8 on every input shape.
func TestSegmenterMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for name, sorted := range segmentInputs() {
		n := len(sorted)
		for _, pMax := range []int{2, 3, 4, 8} {
			seg := newSegmenter(sorted, pMax)
			ref := newRefSegmenter(sorted, pMax)
			if seg.total != ref.prefix[n] {
				t.Fatalf("%s pMax %d: total %v, reference %v", name, pMax, seg.total, ref.prefix[n])
			}
			lambdas := []float64{0, seg.total + 1, math.SmallestNonzeroFloat64}
			for k := 0; k < 40; k++ {
				lambdas = append(lambdas, r.Float64()*(seg.total+1), r.ExpFloat64()*(seg.total+1)/float64(n))
			}
			for _, lambda := range lambdas {
				want := ref.run(lambda)
				if got := seg.run(lambda, nil); got != want {
					t.Fatalf("%s pMax %d lambda %v: probe count %d, reference %d", name, pMax, lambda, got, want)
				}
				if got, want := seg.sizes(lambda), ref.sizes(); !slices.Equal(got, want) {
					t.Fatalf("%s pMax %d lambda %v: sizes %v, reference %v", name, pMax, lambda, got, want)
				}
			}
			for _, target := range []int{1, n / pMax, (2*n + pMax) / (1 + pMax), (n + 1) / 2, n} {
				got, want := targetSizes(sorted, pMax, target), refTargetSizes(sorted, pMax, target)
				if !slices.Equal(got, want) {
					t.Fatalf("%s pMax %d target %d: targetSizes %v, reference %v", name, pMax, target, got, want)
				}
			}
		}
	}
}
