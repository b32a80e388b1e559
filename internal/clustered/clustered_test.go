package clustered

import (
	"maps"
	"runtime"
	"testing"

	"cimsa/internal/cluster"
	"cimsa/internal/heuristics"
	"cimsa/internal/noise"
	"cimsa/internal/rng"
	"cimsa/internal/tour"
	"cimsa/internal/tsplib"
)

func solveOpts(mode Mode, seed uint64) Options {
	return Options{
		Strategy: cluster.Strategy{Kind: cluster.SemiFlex, P: 3},
		Schedule: noise.PaperSchedule(),
		Mode:     mode,
		Seed:     seed,
	}
}

func TestSolveProducesValidTour(t *testing.T) {
	in := tsplib.Generate("cl-solve", 300, tsplib.StyleUniform, 1)
	res, err := Solve(in, solveOpts(ModeNoisyCIM, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	if res.Length != res.Tour.Length(in) {
		t.Fatalf("reported length %v, tour measures %v", res.Length, res.Tour.Length(in))
	}
}

func TestSolveAllStrategies(t *testing.T) {
	in := tsplib.Generate("cl-strat", 200, tsplib.StyleClustered, 2)
	for _, s := range []cluster.Strategy{
		{Kind: cluster.Arbitrary},
		{Kind: cluster.Fixed, P: 2},
		{Kind: cluster.Fixed, P: 4},
		{Kind: cluster.SemiFlex, P: 2},
		{Kind: cluster.SemiFlex, P: 4},
	} {
		opt := solveOpts(ModeNoisyCIM, 3)
		opt.Strategy = s
		res, err := Solve(in, opt)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if err := res.Tour.Validate(in.N()); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
}

func TestSolveAllModes(t *testing.T) {
	in := tsplib.Generate("cl-modes", 150, tsplib.StylePCB, 4)
	for _, m := range []Mode{ModeNoisyCIM, ModeMetropolis, ModeGreedy, ModeNoisySpins} {
		res, err := Solve(in, solveOpts(m, 5))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := res.Tour.Validate(in.N()); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestSolveQualityVsReference(t *testing.T) {
	// The headline algorithm result: the clustered annealer lands within
	// ~50% of the classical reference (the paper reports <25% over the
	// optimal tour for its largest configs; our reference is itself a
	// heuristic, so the bar here is deliberately loose but meaningful).
	in := tsplib.Generate("cl-quality", 600, tsplib.StyleUniform, 6)
	_, ref := heuristics.Reference(in)
	res, err := Solve(in, solveOpts(ModeNoisyCIM, 7))
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Length / ref
	if ratio > 1.6 {
		t.Fatalf("optimal ratio %v too poor", ratio)
	}
	if ratio < 0.95 {
		t.Fatalf("ratio %v suspiciously good — reference may be broken", ratio)
	}
}

func TestNoiseHelpsOverGreedy(t *testing.T) {
	// The core annealing claim: noisy weights escape local minima that
	// pure greedy cannot. Averaged over instances, noisy-CIM must be at
	// least as good as greedy.
	var noisy, greedy float64
	for seed := uint64(0); seed < 4; seed++ {
		in := tsplib.Generate("cl-noise-help", 300, tsplib.StyleClustered, 10+seed)
		rn, err := Solve(in, solveOpts(ModeNoisyCIM, seed))
		if err != nil {
			t.Fatal(err)
		}
		rg, err := Solve(in, solveOpts(ModeGreedy, seed))
		if err != nil {
			t.Fatal(err)
		}
		noisy += rn.Length
		greedy += rg.Length
	}
	if noisy > greedy*1.02 {
		t.Fatalf("noisy annealing (%v) worse than greedy (%v)", noisy, greedy)
	}
}

func TestNoisySpinsDeterministicTrace(t *testing.T) {
	// The [4] ablation: spatial spin noise yields the same trajectory on
	// every attempt (different proposal seeds do not matter because the
	// accept rule is deterministic given the same proposals; here we
	// check the stronger paper claim — same seed, same fixed errors,
	// identical outcome — and that weight noise differs across chips).
	in := tsplib.Generate("cl-spins", 200, tsplib.StyleUniform, 8)
	a, err := Solve(in, solveOpts(ModeNoisySpins, 9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(in, solveOpts(ModeNoisySpins, 9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Length != b.Length {
		t.Fatalf("noisy-spins trace not deterministic: %v vs %v", a.Length, b.Length)
	}
	// Different chips (fabrics) give the weight-noise design different
	// outcomes: entropy comes from the fabric, not the proposal stream.
	optA := solveOpts(ModeNoisyCIM, 11)
	optA.Fabric = noise.NewFabric(100)
	optB := solveOpts(ModeNoisyCIM, 11)
	optB.Fabric = noise.NewFabric(200)
	ra, err := Solve(in, optA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Solve(in, optB)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Length == rb.Length && ra.Tour.Length(in) == rb.Tour.Length(in) {
		// Identical lengths are possible but identical tours are a red
		// flag: compare the cycles, each city's pair of neighbours.
		neighbours := func(tr tour.Tour) map[[2]int]bool {
			n := len(tr)
			out := make(map[[2]int]bool, n)
			for i, c := range tr {
				a, b := tr[(i+n-1)%n], tr[(i+1)%n]
				out[[2]int{c, min(a, b)}], out[[2]int{c, max(a, b)}] = true, true
			}
			return out
		}
		if maps.Equal(neighbours(ra.Tour), neighbours(rb.Tour)) {
			t.Fatal("different fabrics produced identical tours")
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	in := tsplib.Generate("cl-det", 250, tsplib.StyleGeographic, 12)
	a, err := Solve(in, solveOpts(ModeNoisyCIM, 13))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(in, solveOpts(ModeNoisyCIM, 13))
	if err != nil {
		t.Fatal(err)
	}
	if a.Length != b.Length || a.Stats != b.Stats {
		t.Fatalf("solves differ: %v vs %v", a.Length, b.Length)
	}
}

func TestStatsPlausible(t *testing.T) {
	in := tsplib.Generate("cl-stats", 400, tsplib.StyleUniform, 14)
	res, err := Solve(in, solveOpts(ModeNoisyCIM, 15))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Levels < 2 {
		t.Fatalf("only %d levels annealed for 400 cities", st.Levels)
	}
	if st.Iterations != st.Levels*400 {
		t.Fatalf("iterations %d != levels %d * 400", st.Iterations, st.Levels)
	}
	if st.Proposed == 0 || st.Accepted == 0 {
		t.Fatal("no swap activity recorded")
	}
	if st.Accepted > st.Proposed {
		t.Fatal("accepted more swaps than proposed")
	}
	if st.BottomWindows == 0 {
		t.Fatal("no bottom windows recorded")
	}
	// The paper's provisioning: 2N/(1+p) clusters for semiflex.
	expect := 2 * in.N() / 4
	if st.BottomWindows > expect*13/10 || st.BottomWindows < expect*6/10 {
		t.Fatalf("bottom windows %d far from provisioning estimate %d", st.BottomWindows, expect)
	}
	if st.Cycles != int64(st.Iterations)*10 {
		t.Fatalf("cycle model inconsistent: %d cycles for %d iterations", st.Cycles, st.Iterations)
	}
	if st.WriteBacks == 0 || st.WeightWrites == 0 {
		t.Fatal("write-back accounting missing")
	}
}

func TestChromaticPhasesNoAdjacentConflicts(t *testing.T) {
	for _, nc := range []int{2, 3, 4, 5, 8, 9, 17} {
		phases := chromaticPhases(nc)
		seen := make([]bool, nc)
		for _, phase := range phases {
			inPhase := make([]bool, nc)
			for _, ci := range phase {
				if seen[ci] {
					t.Fatalf("nc=%d: cluster %d in two phases", nc, ci)
				}
				seen[ci] = true
				inPhase[ci] = true
			}
			for _, ci := range phase {
				left := (ci - 1 + nc) % nc
				right := (ci + 1) % nc
				if nc > 2 && (inPhase[left] || inPhase[right]) {
					t.Fatalf("nc=%d: cluster %d updates alongside a neighbour", nc, ci)
				}
			}
		}
		for ci, ok := range seen {
			if !ok {
				t.Fatalf("nc=%d: cluster %d never updates", nc, ci)
			}
		}
	}
}

func TestSmallInstances(t *testing.T) {
	// Down to the smallest registry sizes the solver must still work.
	for _, n := range []int{12, 25, 52} {
		in := tsplib.Generate("cl-small", n, tsplib.StyleUniform, uint64(n))
		res, err := Solve(in, solveOpts(ModeNoisyCIM, uint64(n)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := res.Tour.Validate(n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestTraceRecording(t *testing.T) {
	in := tsplib.Generate("cl-trace", 200, tsplib.StyleUniform, 21)
	opt := solveOpts(ModeNoisyCIM, 22)
	opt.RecordTrace = true
	res, err := Solve(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LevelTraces) != res.Stats.Levels {
		t.Fatalf("%d traces for %d levels", len(res.LevelTraces), res.Stats.Levels)
	}
	for li, trace := range res.LevelTraces {
		if len(trace) != 400 {
			t.Fatalf("level %d trace has %d points", li, len(trace))
		}
		// The objective must not get dramatically worse over a level; the
		// annealed end should be at or below the start (noise can wiggle,
		// so allow 2%).
		if trace[len(trace)-1] > trace[0]*1.02 {
			t.Errorf("level %d objective rose: %v -> %v", li, trace[0], trace[len(trace)-1])
		}
		for _, v := range trace {
			if v <= 0 {
				t.Fatalf("non-positive objective in trace")
			}
		}
	}
	// No traces unless requested.
	res2, err := Solve(in, solveOpts(ModeNoisyCIM, 22))
	if err != nil {
		t.Fatal(err)
	}
	if res2.LevelTraces != nil {
		t.Fatal("traces recorded without RecordTrace")
	}
}

func TestBadScheduleRejected(t *testing.T) {
	in := tsplib.Generate("cl-bad", 50, tsplib.StyleUniform, 1)
	opt := solveOpts(ModeNoisyCIM, 1)
	opt.Schedule = noise.Schedule{VDDStart: -1, Epochs: 1, EpochIters: 1}
	if _, err := Solve(in, opt); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}

func BenchmarkSolve1k(b *testing.B) {
	in := tsplib.Generate("cl-bench", 1000, tsplib.StyleUniform, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(in, solveOpts(ModeNoisyCIM, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	// The chromatic phases are data-race-free by construction and the
	// proposal randomness is counter-derived, so a multi-worker pool must
	// produce the exact same tour as a single worker.
	in := tsplib.Generate("cl-par", 500, tsplib.StyleClustered, 31)
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	for _, mode := range []Mode{ModeNoisyCIM, ModeMetropolis} {
		seq := solveOpts(mode, 32)
		seq.Workers = 1
		par := solveOpts(mode, 32)
		par.Workers = workers
		a, err := Solve(in, seq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(in, par)
		if err != nil {
			t.Fatal(err)
		}
		if a.Length != b.Length {
			t.Fatalf("%v: sequential %v != parallel %v", mode, a.Length, b.Length)
		}
		if a.Stats.Accepted != b.Stats.Accepted || a.Stats.Proposed != b.Stats.Proposed {
			t.Fatalf("%v: stats differ: %+v vs %+v", mode, a.Stats, b.Stats)
		}
		for i := range a.Tour {
			if a.Tour[i] != b.Tour[i] {
				t.Fatalf("%v: tours differ at %d", mode, i)
			}
		}
	}
}

// TestWorkerCountDeterminism pins the pool's contract: the tour, length
// and every statistic are byte-identical for any worker count (0 being
// the automatic pool size) to the sequential Workers: 1 run, on
// multiple instances and modes. Counter-based proposal randomness plus
// non-adjacent chromatic phases make the schedule of work across
// workers unobservable.
func TestWorkerCountDeterminism(t *testing.T) {
	instances := []*tsplib.Instance{
		tsplib.Generate("cl-det-a", 420, tsplib.StyleClustered, 61),
		tsplib.Generate("cl-det-b", 350, tsplib.StyleUniform, 62),
	}
	workerCounts := []int{0, 1, 2, runtime.GOMAXPROCS(0)}
	for _, in := range instances {
		for _, mode := range []Mode{ModeNoisyCIM, ModeMetropolis} {
			seq := solveOpts(mode, 63)
			seq.Workers = 1
			base, err := Solve(in, seq)
			if err != nil {
				t.Fatal(err)
			}
			for _, wk := range workerCounts {
				opt := solveOpts(mode, 63)
				opt.Workers = wk
				res, err := Solve(in, opt)
				if err != nil {
					t.Fatalf("%s/%v workers=%d: %v", in.Name, mode, wk, err)
				}
				if res.Length != base.Length {
					t.Fatalf("%s/%v workers=%d: length %v != sequential %v",
						in.Name, mode, wk, res.Length, base.Length)
				}
				if res.Stats != base.Stats {
					t.Fatalf("%s/%v workers=%d: stats %+v != sequential %+v",
						in.Name, mode, wk, res.Stats, base.Stats)
				}
				for i := range base.Tour {
					if res.Tour[i] != base.Tour[i] {
						t.Fatalf("%s/%v workers=%d: tours differ at position %d",
							in.Name, mode, wk, i)
					}
				}
			}
		}
	}
}

// chromaticPhases is the reference partition of nc cluster indices
// into phases of mutually non-adjacent clusters in the cycle: odd, then
// even, with a third phase for the final cluster when the count is odd
// (it would otherwise be adjacent to cluster 0 in the even phase).
// Empty phases are never emitted: small cluster counts (nc <= 2)
// produce fewer than three phases.
func chromaticPhases(nc int) [][]int {
	var odd, even, extra []int
	for ci := 0; ci < nc; ci++ {
		switch {
		case nc%2 == 1 && ci == nc-1:
			extra = append(extra, ci)
		case ci%2 == 1:
			odd = append(odd, ci)
		default:
			even = append(even, ci)
		}
	}
	var phases [][]int
	for _, ph := range [][]int{odd, even, extra} {
		if len(ph) > 0 {
			phases = append(phases, ph)
		}
	}
	return phases
}

// uniformSizes is a level of nc clusters of p children each.
func uniformSizes(nc, p int) []uint8 {
	sizes := make([]uint8, nc)
	for i := range sizes {
		sizes[i] = uint8(p)
	}
	return sizes
}

// TestPhasesForMatchesChromaticPhases pins the executor's reusable phase
// buffers to the reference partition with the clusters that cannot
// propose (fewer than two children) removed, and empty phases dropped.
func TestPhasesForMatchesChromaticPhases(t *testing.T) {
	ex := &executor{workers: 1, shards: make([]statShard, 1)}
	r := rng.New(9)
	for _, nc := range []int{1, 2, 3, 4, 5, 8, 9, 17, 100, 101} {
		for trial := 0; trial < 8; trial++ {
			sizes := uniformSizes(nc, 3)
			if trial > 0 {
				// Mixed levels, including ones with every cluster of a
				// phase a singleton.
				for ci := range sizes {
					sizes[ci] = uint8(1 + r.Intn(trial%4+1))
				}
			}
			var want [][]int
			for _, ph := range chromaticPhases(nc) {
				var kept []int
				for _, ci := range ph {
					if sizes[ci] >= 2 {
						kept = append(kept, ci)
					}
				}
				if len(kept) > 0 {
					want = append(want, kept)
				}
			}
			checkPhases(t, nc, sizes, ex.phasesFor(sizes), want)
		}
	}
}

func checkPhases(t *testing.T, nc int, sizes []uint8, got, want [][]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("nc=%d sizes %v: %d phases, want %d", nc, sizes, len(got), len(want))
	}
	for pi := range want {
		if len(got[pi]) != len(want[pi]) {
			t.Fatalf("nc=%d sizes %v phase %d: len %d, want %d", nc, sizes, pi, len(got[pi]), len(want[pi]))
		}
		for i := range want[pi] {
			if got[pi][i] != want[pi][i] {
				t.Fatalf("nc=%d sizes %v phase %d: got %v, want %v", nc, sizes, pi, got[pi], want[pi])
			}
		}
	}
}

// TestStatsAdd checks the multi-restart aggregation rule: work counters
// sum, provisioning takes the max.
func TestStatsAdd(t *testing.T) {
	a := Stats{Levels: 2, BottomWindows: 10, Iterations: 800, Proposed: 50, Accepted: 20,
		WriteBacks: 16, Cycles: 8000, WeightWrites: 1000, BoundaryTransferBits: 300}
	b := Stats{Levels: 3, BottomWindows: 12, Iterations: 1200, Proposed: 70, Accepted: 30,
		WriteBacks: 24, Cycles: 12000, WeightWrites: 1500, BoundaryTransferBits: 400}
	sum := a
	sum.Add(b)
	want := Stats{Levels: 5, BottomWindows: 12, Iterations: 2000, Proposed: 120, Accepted: 50,
		WriteBacks: 40, Cycles: 20000, WeightWrites: 2500, BoundaryTransferBits: 700}
	if sum != want {
		t.Fatalf("Add: got %+v, want %+v", sum, want)
	}
}

// referenceCounterHash is the one-shot form of the counter hash: fold
// every counter, then finalize. iterKey/proposal split it so the shared
// (seed, level, iter) prefix is folded once per iteration.
func referenceCounterHash(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// TestProposalMatchesOneShotHash pins the hoisted derivation to the
// one-shot counter hash, draw for draw: the proposal stream is what
// every golden tour depends on.
func TestProposalMatchesOneShotHash(t *testing.T) {
	for _, seed := range []uint64{0, 7, 1 << 63, 0xfeedface} {
		for level := 0; level < 14; level += 3 {
			for iter := 0; iter < 400; iter += 37 {
				key := iterKey(seed, level, iter)
				for ci := 0; ci < 40000; ci += 997 {
					for p := 2; p <= 9; p++ {
						hc := clusterKey(key, ci)
						i, j := proposal(hc, p)
						u := acceptUniform(hc)
						h := referenceCounterHash(seed, uint64(level), uint64(iter), uint64(ci), 0)
						h2 := referenceCounterHash(seed, uint64(level), uint64(iter), uint64(ci), 1)
						wi, wj := 0, 1
						if p > 2 {
							wi, wj = int((h>>24)%uint64(p)), int((h%(1<<24))%uint64(p-1))
							if wj >= wi {
								wj++
							}
						}
						wu := float64(h2>>11) / (1 << 53)
						if i != wi || j != wj || u != wu {
							t.Fatalf("seed %d level %d iter %d cluster %d p %d: got (%d,%d,%v), one-shot (%d,%d,%v)",
								seed, level, iter, ci, p, i, j, u, wi, wj, wu)
						}
					}
				}
			}
		}
	}
}

func TestProposalForProperties(t *testing.T) {
	// Proposals must be in range, never i == j, and well spread over the
	// 12 ordered pairs.
	counts := make(map[[2]int]int)
	for iter := 0; iter < 3000; iter++ {
		hc := clusterKey(iterKey(7, 2, iter), 5)
		i, j := proposal(hc, 4)
		u := acceptUniform(hc)
		if i < 0 || i >= 4 || j < 0 || j >= 4 || i == j {
			t.Fatalf("proposal out of range: %d,%d", i, j)
		}
		if u < 0 || u >= 1 {
			t.Fatalf("uniform out of range: %v", u)
		}
		counts[[2]int{i, j}]++
	}
	if len(counts) != 12 {
		t.Fatalf("proposals cover %d/12 pairs", len(counts))
	}
	for pair, c := range counts {
		if c < 3000/12/2 {
			t.Fatalf("pair %v undersampled: %d", pair, c)
		}
	}
	// Different clusters get different streams.
	key := iterKey(7, 2, 10)
	i1, j1 := proposal(clusterKey(key, 5), 4)
	same := 0
	for ci := 0; ci < 50; ci++ {
		i2, j2 := proposal(clusterKey(key, ci), 4)
		if i1 == i2 && j1 == j2 {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("proposal streams correlated across clusters: %d/50", same)
	}
}

// TestGoldenLengths pins exact outputs for fixed seeds: any change to
// the clustering, proposal derivation, quantization, noise fabric or
// accept rule shows up here as a diff, not as a silent quality drift.
// If a change is intentional, update the constants (and re-run the
// full-scale experiments to refresh EXPERIMENTS.md).
func TestGoldenLengths(t *testing.T) {
	in := tsplib.Generate("cl-golden", 400, tsplib.StyleClustered, 99)
	cases := []struct {
		mode Mode
		seed uint64
	}{
		{ModeNoisyCIM, 1},
		{ModeNoisyCIM, 2},
		{ModeGreedy, 1},
		{ModeMetropolis, 1},
	}
	var got []float64
	for _, c := range cases {
		res, err := Solve(in, solveOpts(c.mode, c.seed))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Length)
	}
	want := goldenLengths
	for i := range cases {
		if got[i] != want[i] {
			t.Errorf("case %d (%v seed %d): length %v, golden %v",
				i, cases[i].mode, cases[i].seed, got[i], want[i])
		}
	}
}

// goldenLengths are the pinned outputs for TestGoldenLengths (noisy-cim
// seed 1, noisy-cim seed 2, greedy seed 1, metropolis seed 1).
var goldenLengths = []float64{1310, 1304, 1317, 1305}

func TestBoundaryTransferAccounting(t *testing.T) {
	in := tsplib.Generate("cl-xfer", 400, tsplib.StyleUniform, 51)
	res, err := Solve(in, solveOpts(ModeNoisyCIM, 52))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BoundaryTransferBits <= 0 {
		t.Fatal("no boundary traffic recorded")
	}
	// Upper bound: every cluster fetches both neighbours across a link
	// every iteration (p bits each). The real count must be far below
	// (only ~2 of every 10 clusters sit at an array edge).
	p := int64(3)
	upper := int64(res.Stats.Iterations) * int64(res.Stats.BottomWindows) * 2 * p
	if res.Stats.BoundaryTransferBits >= upper/2 {
		t.Fatalf("boundary traffic %d implausibly high (upper bound %d)",
			res.Stats.BoundaryTransferBits, upper)
	}
	// Deterministic: same solve, same traffic.
	res2, err := Solve(in, solveOpts(ModeNoisyCIM, 52))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.BoundaryTransferBits != res.Stats.BoundaryTransferBits {
		t.Fatal("traffic accounting not deterministic")
	}
}

// TestBoundaryTransfersUseActualClusterSizes pins the Fig. 5e
// accounting rule: a boundary fetch carries the *neighbour cluster's*
// one-hot width, not the provisioned pMax — remainder clusters smaller
// than pMax transfer fewer bits.
func TestBoundaryTransfersUseActualClusterSizes(t *testing.T) {
	// 12 clusters span two arrays (WindowsPerArray = 10): links cross
	// between clusters 9↔10 and, cyclically, 11↔0.
	sizes := []int{3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 1, 2}
	state := &levelState{sizes: make([]uint8, len(sizes))}
	for ci, p := range sizes {
		state.sizes[ci] = uint8(p)
	}
	// Crossing fetches pull sizes[10], sizes[9], sizes[0] and sizes[11]:
	// 1 + 2 + 3 + 2 bits. The provisioned-pMax accounting would claim 12.
	got := boundaryTransfersPerIter(state)
	if want := int64(1 + 2 + 3 + 2); got != want {
		t.Fatalf("boundary transfers = %d bits/iter, want %d", got, want)
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModeNoisyCIM, ModeMetropolis, ModeGreedy, ModeNoisySpins} {
		got, err := ParseMode(m.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != m {
			t.Fatalf("ParseMode(%q) = %v", m.String(), got)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}
