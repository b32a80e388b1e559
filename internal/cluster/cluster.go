// Package cluster builds the hierarchical clustering the annealer runs
// on: cities are grouped bottom-up into clusters of a few elements per
// level until only a handful of top-level super-clusters remain
// (Fig. 4 of the paper). Three sizing strategies from Table I are
// provided:
//
//   - Arbitrary: only the number of clusters per level is constrained
//     (half the element count, so clusters average two elements); sizes
//     are free. Best quality, but a hardware-reconfigurability nightmare,
//     so it serves as the quality baseline.
//   - Fixed: every cluster holds exactly P elements. Cheapest hardware,
//     worst quality.
//   - SemiFlex: cluster sizes range 1..PMax with average (1+PMax)/2. The
//     paper's compromise: hardware provisions 2N/(1+PMax) windows of
//     PMax² columns with some redundancy.
//
// Elements are ordered along a Hilbert curve and segmented with dynamic
// programming, so clusters are spatially coherent and construction is
// O(n log n).
package cluster

import (
	"fmt"
	"math"

	"cimsa/internal/geom"
)

// Kind selects a clustering strategy family.
type Kind int

const (
	// KindUnset is the zero value; callers interpret it as "use the
	// default strategy". It is never valid to build with.
	KindUnset Kind = iota
	// Arbitrary constrains only the cluster count (elements/2 per level).
	Arbitrary
	// Fixed uses exactly P elements per cluster.
	Fixed
	// SemiFlex uses 1..P elements per cluster.
	SemiFlex
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindUnset:
		return "unset"
	case Arbitrary:
		return "arbitrary"
	case Fixed:
		return "fixed"
	case SemiFlex:
		return "semiflex"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Strategy is a clustering policy: a kind plus its size parameter.
type Strategy struct {
	Kind Kind
	// P is the exact size for Fixed, the maximum size for SemiFlex, and
	// ignored for Arbitrary.
	P int
}

// Validate checks the parameter ranges.
func (s Strategy) Validate() error {
	switch s.Kind {
	case Arbitrary:
		return nil
	case Fixed, SemiFlex:
		if s.P < 2 {
			return fmt.Errorf("cluster: strategy %v needs P >= 2, got %d", s.Kind, s.P)
		}
		if s.P > 8 {
			return fmt.Errorf("cluster: P = %d unsupported (window size grows as P^4)", s.P)
		}
		return nil
	default:
		return fmt.Errorf("cluster: unknown kind %d", int(s.Kind))
	}
}

// String formats the strategy like the paper's Table I rows.
func (s Strategy) String() string {
	switch s.Kind {
	case Arbitrary:
		return "arbitrary"
	case Fixed:
		return fmt.Sprintf("fixed-%d", s.P)
	case SemiFlex:
		return fmt.Sprintf("semiflex-1..%d", s.P)
	default:
		return s.Kind.String()
	}
}

// arbitraryMaxSize caps cluster sizes for the Arbitrary strategy so the
// per-cluster annealing state stays small; the Lagrangian segmentation
// rarely reaches it.
const arbitraryMaxSize = 8

// Node is an element of the hierarchy: a city at level 0, a cluster of
// lower-level nodes above.
type Node struct {
	// Children are the nodes grouped into this one; nil for a leaf.
	Children []*Node
	// City is the city index for leaves, -1 otherwise.
	City int
	// Centroid is the mean position of all leaf cities below.
	Centroid geom.Point
	// Leaves is the number of cities in the subtree.
	Leaves int
}

// IsLeaf reports whether the node is a single city.
func (n *Node) IsLeaf() bool { return n.Children == nil }

// Hierarchy is the full clustering: Levels[0] holds one leaf per city in
// Hilbert order; each higher level groups the one below; the last level
// has at most TopThreshold nodes.
type Hierarchy struct {
	Strategy Strategy
	Levels   [][]*Node
}

// TopThreshold is the element count at which clustering stops; the top
// level is solved directly by the annealer.
const TopThreshold = 10

// Build constructs the hierarchy for the given city positions.
func Build(cities []geom.Point, s Strategy) (*Hierarchy, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(cities) < 3 {
		return nil, fmt.Errorf("cluster: need >= 3 cities, got %d", len(cities))
	}
	// Level 0: leaves in Hilbert order. Each level's nodes share one
	// backing array, so a paper-scale build is a handful of allocations
	// rather than one per node.
	order := geom.HilbertSort(cities)
	leaves := make([]Node, len(cities))
	level := make([]*Node, len(cities))
	for i, ci := range order {
		leaves[i] = Node{City: ci, Centroid: cities[ci], Leaves: 1}
		level[i] = &leaves[i]
	}
	h := &Hierarchy{Strategy: s, Levels: [][]*Node{level}}
	for len(level) > TopThreshold {
		next := groupLevel(level, s)
		if len(next) >= len(level) {
			return nil, fmt.Errorf("cluster: level failed to shrink (%d -> %d)", len(level), len(next))
		}
		h.Levels = append(h.Levels, next)
		level = next
	}
	return h, nil
}

// NumLevels returns the number of levels including the leaf level.
func (h *Hierarchy) NumLevels() int { return len(h.Levels) }

// Top returns the highest (smallest) level.
func (h *Hierarchy) Top() []*Node { return h.Levels[len(h.Levels)-1] }

// Validate checks structural invariants: every level partitions the one
// below, leaf counts add up, and cluster sizes respect the strategy.
func (h *Hierarchy) Validate() error {
	n := len(h.Levels[0])
	for li, level := range h.Levels {
		total := 0
		for _, node := range level {
			total += node.Leaves
			if li == 0 {
				if !node.IsLeaf() {
					return fmt.Errorf("cluster: level 0 node is not a leaf")
				}
				continue
			}
			if node.IsLeaf() {
				return fmt.Errorf("cluster: level %d contains a bare leaf", li)
			}
			size := len(node.Children)
			switch h.Strategy.Kind {
			case Fixed:
				// The final cluster of a level may be a remainder.
				if size > h.Strategy.P {
					return fmt.Errorf("cluster: fixed-%d cluster has %d elements", h.Strategy.P, size)
				}
			case SemiFlex:
				if size < 1 || size > h.Strategy.P {
					return fmt.Errorf("cluster: semiflex-%d cluster has %d elements", h.Strategy.P, size)
				}
			case Arbitrary:
				if size < 1 || size > arbitraryMaxSize {
					return fmt.Errorf("cluster: arbitrary cluster has %d elements", size)
				}
			}
		}
		if total != n {
			return fmt.Errorf("cluster: level %d covers %d leaves, want %d", li, total, n)
		}
	}
	return nil
}

// groupLevel clusters one level into the next according to the strategy.
// Elements keep their (already spatial) order; they were produced either
// by the Hilbert sort (level 0) or by previous groupings of sorted
// elements, so re-sorting by centroid keeps locality.
func groupLevel(level []*Node, s Strategy) []*Node {
	pts := make([]geom.Point, len(level))
	for i, n := range level {
		pts[i] = n.Centroid
	}
	order := geom.HilbertSort(pts)
	// sorted is owned by this level: the new clusters' Children slice it
	// directly (capacity-capped, so an append can never spill into a
	// sibling's children).
	sorted := make([]*Node, len(level))
	for i, oi := range order {
		sorted[i] = level[oi]
	}
	var sizes []int
	switch s.Kind {
	case Fixed:
		sizes = fixedSizes(len(sorted), s.P)
	case SemiFlex:
		// The paper's semi-flexible strategy: sizes 1..P averaging
		// (1+P)/2, i.e. 2N/(1+P) clusters per level.
		sizes = targetSizes(sorted, s.P, (2*len(sorted)+s.P)/(1+s.P))
	case Arbitrary:
		sizes = targetSizes(sorted, arbitraryMaxSize, (len(sorted)+1)/2)
	}
	nodes := make([]Node, len(sizes))
	next := make([]*Node, len(sizes))
	idx := 0
	for i, sz := range sizes {
		nodes[i] = parentOf(sorted[idx : idx+sz : idx+sz])
		next[i] = &nodes[i]
		idx += sz
	}
	return next
}

// parentOf returns the cluster node over children.
func parentOf(children []*Node) Node {
	leaves := 0
	var sx, sy float64
	for _, c := range children {
		leaves += c.Leaves
		sx += c.Centroid.X * float64(c.Leaves)
		sy += c.Centroid.Y * float64(c.Leaves)
	}
	return Node{
		Children: children,
		City:     -1,
		Centroid: geom.Point{X: sx / float64(leaves), Y: sy / float64(leaves)},
		Leaves:   leaves,
	}
}

// fixedSizes splits n elements into chunks of exactly p (with one
// remainder chunk if p does not divide n).
func fixedSizes(n, p int) []int {
	var sizes []int
	for n >= p {
		sizes = append(sizes, p)
		n -= p
	}
	if n > 0 {
		sizes = append(sizes, n)
	}
	return sizes
}

// segmenter chooses segment sizes 1..pMax over one level's sorted
// elements to minimize total within-segment path length plus lambda per
// segment (lambda = 0 leaves the count free). The within-segment path
// lengths depend only on the elements, so they are computed once and
// shared by targetSizes' fifty Lagrangian probes, which allocate
// nothing.
type segmenter struct {
	pMax int
	// total is the path length from the first element to the last along
	// the sorted order.
	total float64
	// intra[(i-1)*(pMax-1)+sz-2] is the internal path length of the
	// size-sz segment that ends at element i-1, prefix[i] −
	// prefix[i−sz+1] over the path prefix sums, for sz = 2..pMax; 0
	// where such a segment would start before element 0. A singleton's
	// is exactly 0, so it is not stored.
	intra []float64
}

// maxSegment is the largest pMax, Validate's cap on P and
// arbitraryMaxSize. It sizes run's ring of DP states, a power of two.
const maxSegment = 8

func newSegmenter(sorted []*Node, pMax int) *segmenter {
	n := len(sorted)
	prefix := make([]float64, n+1)
	for i := 1; i < n; i++ {
		prefix[i+1] = prefix[i] + geom.Exact.Dist(sorted[i-1].Centroid, sorted[i].Centroid)
	}
	w := pMax - 1
	intra := make([]float64, n*w)
	for i := 1; i <= n; i++ {
		for sz := 2; sz <= min(pMax, i); sz++ {
			intra[(i-1)*w+sz-2] = prefix[i] - prefix[i-sz+1]
		}
	}
	return &segmenter{pMax: pMax, total: prefix[n], intra: intra}
}

// run solves the DP for penalty lambda and returns the optimal segment
// count. The optimum over the first i elements is the cheapest of
// (best[i−sz] + intra) + lambda over sz = 1..pMax, scanned in ascending
// size from +Inf with a strict <, so ties go to the smallest last
// segment; a singleton's intra is exactly 0, so its cost is best[i−1]
// + lambda. Only the last pMax optima are live, so they stay in a
// stack ring, and the newest also in prev: a probe writes no memory
// but its locals. Every cost is non-negative, so comparing IEEE bits
// as integers orders costs as the floats do, and the selection
// compiles to conditional moves rather than data-dependent branches.
// When choice is non-nil, run also records each prefix's last segment
// size in choice[i] for sizes to backtrack.
func (s *segmenter) run(lambda float64, choice []uint8) int {
	const ring = maxSegment - 1
	w := s.pMax - 1
	n := len(s.intra) / w
	inf := math.Float64bits(math.Inf(1))
	// best[i&ring] and count[i&ring] hold the optimum over the first i
	// elements; slots of prefixes before the first are +Inf, so a
	// segment that would start there never wins.
	var best [maxSegment]float64
	var count [maxSegment]int
	for k := 1; k < maxSegment; k++ {
		best[k] = math.Inf(1)
	}
	prev, prevCount := 0.0, 0
	for i := 1; i <= n; i++ {
		in := s.intra[(i-1)*w : i*w : i*w]
		b, c, ch := inf, 0, 0
		if cost := math.Float64bits(prev + lambda); cost < b {
			b, c, ch = cost, prevCount+1, 1
		}
		for sz := 2; sz <= len(in)+1; sz++ {
			k := (i - sz) & ring
			// Loading count before the comparison keeps the branch
			// body free of memory reads, which conditional moves need.
			cost, cc := math.Float64bits(best[k]+in[sz-2]+lambda), count[k]+1
			if cost < b {
				b, c, ch = cost, cc, sz
			}
		}
		prev, prevCount = math.Float64frombits(b), c
		best[i&ring], count[i&ring] = prev, c
		if choice != nil {
			choice[i] = uint8(ch)
		}
	}
	return prevCount
}

// sizes runs the DP for lambda once more, recording choices, and
// backtracks its segment sizes, in order.
func (s *segmenter) sizes(lambda float64) []int {
	n := len(s.intra) / (s.pMax - 1)
	choice := make([]uint8, n+1)
	sizes := make([]int, s.run(lambda, choice))
	for i, k := n, len(sizes)-1; i > 0; i, k = i-int(choice[i]), k-1 {
		sizes[k] = int(choice[i])
	}
	return sizes
}

// targetSizes picks segment sizes 1..maxSize whose count lands near
// target, using a Lagrangian binary search on the per-segment penalty:
// increasing lambda merges more aggressively and monotonically lowers
// the segment count.
func targetSizes(sorted []*Node, maxSize, target int) []int {
	n := len(sorted)
	minPossible := (n + maxSize - 1) / maxSize
	if target < minPossible {
		target = minPossible
	}
	seg := newSegmenter(sorted, maxSize)
	// With lambda larger than the total path length, merging always pays,
	// so the count reaches its minimum; lambda 0 gives all singletons.
	lo, hi := 0.0, seg.total+1
	for iter := 0; iter < 50; iter++ {
		mid := (lo + hi) / 2
		if seg.run(mid, nil) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return seg.sizes(hi)
}

// ProvisionedWeights returns the number of 8-bit weights the hardware
// provisions for an n-city problem under the strategy, following the
// paper's capacity formulas (§V.A): windows of (p²+2p)·p² weights, one
// per bottom-level cluster.
func ProvisionedWeights(n int, s Strategy) int {
	switch s.Kind {
	case Fixed:
		p := s.P
		windows := (n + p - 1) / p
		return (p*p + 2*p) * p * p * windows
	case SemiFlex:
		p := s.P
		windows := 2 * n / (1 + p)
		return (p*p + 2*p) * p * p * windows
	case Arbitrary:
		// Not hardware-realizable; reported as zero like the blank
		// capacity cells in Table I.
		return 0
	default:
		return 0
	}
}

// ProvisionedBytes is ProvisionedWeights in bytes (8-bit weights).
func ProvisionedBytes(n int, s Strategy) int { return ProvisionedWeights(n, s) }
