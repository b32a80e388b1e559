package clustered

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"cimsa/internal/cim"
	"cimsa/internal/cluster"
	"cimsa/internal/device"
	"cimsa/internal/noise"
	"cimsa/internal/tsplib"
)

// proposal is the draw's one-cluster oracle: for a cluster of p >= 2
// children, slot i is uniform over [0, p) and slot j over the other
// p − 1 slots. Of the finished hash h of the clusterKey hc, i = (h>>24)
// % p and j = (h mod 2²⁴) % (p−1), stepped past i. Two children need no
// hash: the pair is (0, 1). drawPass computes the same by direct
// remainders for the cluster sizes a strategy allows (2 to 8); this is
// plain division, for any p >= 2.
func proposal(hc uint64, p int) (i, j int) {
	if p == 2 {
		return 0, 1
	}
	h := counterFinish(counterFold(hc, 0))
	i = int((h >> 24) % uint64(p))
	j = int((h & (1<<24 - 1)) % uint64(p-1))
	if j >= i {
		j++
	}
	return i, j
}

// updateCluster is the per-cluster reference updatePhase must
// reproduce: draw cluster ci's slot pair, probe, accept and swap, one
// cluster at a time. Unlike updatePhase it draws and probes settled
// windows too. It returns whether the swap was accepted.
func updateCluster(state *levelState, ci int, key uint64, o *Options, ep noise.Epoch, temp float64) (accepted bool) {
	p := int(state.sizes[ci])
	i, j := proposal(clusterKey(key, ci), p)
	prev, next := ci-1, ci+1
	if prev < 0 {
		prev = len(state.orders) - 1
	}
	if next == len(state.orders) {
		next = 0
	}
	order := state.orders[ci]
	in := order
	if o.Mode == ModeNoisySpins {
		in = corruptOrder(order, p, ep, ci)
	}
	delta := state.chip.SwapDelta(ci, in, state.orders[prev].Last(), state.orders[next].First(int(state.sizes[next])), i, j)
	if !accept(state, ci, delta, o.Mode, key, temp) {
		return false
	}
	state.orders[ci] = order.Swap(p, i, j)
	return true
}

// updateWriteBack is one write-back of the update tests' epoch sequence.
type updateWriteBack struct {
	ep   noise.Epoch
	nLSB int
}

// updateWriteBacks is the epoch sequence the update tests drive a level
// through: the schedule's first two epochs (noisy into noisy for
// noisy-cim, clean for the other modes), then noisy into clean and
// clean into clean. The last keeps the memo and the settled flags.
func updateWriteBacks(t *testing.T, o *Options) []updateWriteBack {
	ep0, n0 := writeBackEpoch(o, 0)
	ep1, n1 := writeBackEpoch(o, o.Schedule.EpochIters)
	if o.Mode == ModeNoisyCIM && (n0 <= 0 || n1 <= 0) {
		t.Fatalf("noisy-cim's first epochs read %d and %d noisy LSBs", n0, n1)
	}
	clean := o.Fabric.At(device.NominalVDD)
	return []updateWriteBack{{ep0, n0}, {ep1, n1}, {clean, 0}, {clean, 0}}
}

// settledCount counts a level's settled windows.
func settledCount(state *levelState) int {
	n := 0
	for w := range state.orders {
		if state.chip.Settled(w) {
			n++
		}
	}
	return n
}

// TestUpdatePhaseMatchesPerClusterReference runs two copies of a
// 1,000-cluster level through four write-back epochs (noisy into noisy,
// noisy into clean, clean into clean; see updateWriteBacks), one on the
// executor's two-pass loop, which skips settled windows before drawing,
// and one through the per-cluster reference, which draws and probes
// every cluster. It requires every order word after every iteration,
// and the Accepted totals, to agree, and the settled flags to survive
// the clean-to-clean write-back. Its phases are several times the draw
// buffer, and at two workers each grab spans more than one buffer too.
func TestUpdatePhaseMatchesPerClusterReference(t *testing.T) {
	in := tsplib.Generate("two-pass", 3000, tsplib.StyleClustered, 5)
	h, err := cluster.Build(in.Cities, cluster.Strategy{Kind: cluster.SemiFlex, P: 3})
	if err != nil {
		t.Fatal(err)
	}
	level := h.Levels[1]
	const span = 25
	for _, mode := range []Mode{ModeNoisyCIM, ModeMetropolis, ModeGreedy, ModeNoisySpins} {
		for _, workers := range []int{1, 2} {
			o := solveOpts(mode, 11).withDefaults()
			o.Workers = workers
			ex := newExecutor(o, in.N())
			got := newLevelState(level)
			ex.buildLevel(got, &o)
			// The reference level's windows load on a one-worker pool.
			refEx := newExecutor(Options{Workers: 1}, in.N())
			ref := newLevelState(level)
			refEx.buildLevel(ref, &o)
			refEx.close()
			if longest := len(ex.plan.steps[0].phase); longest <= 4*drawBatch {
				t.Fatalf("phase of %d clusters does not exceed the draw buffer", longest)
			}
			var refAccepted int64
			temp := metropolisTemp(got)
			wbs := updateWriteBacks(t, &o)
			iters := span * len(wbs)
			for iter := 0; iter < iters; iter++ {
				if iter%span == 0 {
					wb := wbs[iter/span]
					settled := settledCount(got)
					got.chip.WriteBack(wb.ep, wb.nLSB)
					ref.chip.WriteBack(wb.ep, wb.nLSB)
					ex.retune()
					if iter/span == len(wbs)-1 {
						if after := settledCount(got); after != settled {
							t.Fatalf("%v workers=%d: the clean-to-clean write-back left %d of %d settled windows", mode, workers, after, settled)
						}
						if mode.settles() && settled == 0 {
							t.Fatalf("%v workers=%d: no window settled, so skipping pinned nothing", mode, workers)
						}
					}
				}
				job := &ex.job
				job.kind = jobUpdatePhase
				job.key = iterKey(o.Seed, 1, iter)
				job.temp = temp * (1 - float64(iter)/float64(iters))
				vdd, _ := o.Schedule.At(iter)
				job.epoch = o.Fabric.At(vdd)
				for si := range ex.plan.steps {
					st := &ex.plan.steps[si]
					job.phase = st.phase
					ex.runStep(job, st)
					for _, ci := range st.phase {
						if updateCluster(ref, ci, job.key, &o, job.epoch, job.temp) {
							refAccepted++
						}
					}
				}
				for ci := range ref.orders {
					if got.orders[ci] != ref.orders[ci] {
						t.Fatalf("%v workers=%d iter %d cluster %d: order %#x, reference %#x",
							mode, workers, iter, ci, got.orders[ci], ref.orders[ci])
					}
				}
			}
			var stats Stats
			ex.mergeShards(&stats)
			ex.close()
			if stats.Accepted != refAccepted {
				t.Fatalf("%v workers=%d: accepted %d, reference %d", mode, workers, stats.Accepted, refAccepted)
			}
			if refAccepted == 0 {
				t.Fatalf("%v workers=%d: no swap accepted, so the orders pinned nothing", mode, workers)
			}
		}
	}
}

// TestSettledWindowsAreUphill checks the settled flags after every
// dispatch of a 1,000-cluster level driven through the epochs of
// updateWriteBacks, at one and two workers and in every mode. In
// noisy-cim and greedy, every slot pair of every settled window,
// recomputed under the current inputs by the fused kernel on a copy of
// the level whose memo is dropped first, must have ΔH >= 0, and some
// window must settle. Metropolis and noisy-spins must never set a flag.
func TestSettledWindowsAreUphill(t *testing.T) {
	in := tsplib.Generate("settled", 3000, tsplib.StyleClustered, 5)
	h, err := cluster.Build(in.Cities, cluster.Strategy{Kind: cluster.SemiFlex, P: 3})
	if err != nil {
		t.Fatal(err)
	}
	level := h.Levels[1]
	const span = 15
	for _, mode := range []Mode{ModeNoisyCIM, ModeMetropolis, ModeGreedy, ModeNoisySpins} {
		for _, workers := range []int{1, 2} {
			o := solveOpts(mode, 4).withDefaults()
			o.Workers = workers
			ex := newExecutor(o, in.N())
			state := newLevelState(level)
			ex.buildLevel(state, &o)
			// scratch holds the same codes; its memo only ever holds what
			// the check below computed since the last drop.
			scratchEx := newExecutor(Options{Workers: 1}, in.N())
			scratch := newLevelState(level)
			scratchEx.buildLevel(scratch, &o)
			scratchEx.close()
			nc := len(state.orders)
			temp := metropolisTemp(state)
			wbs := updateWriteBacks(t, &o)
			iters := span * len(wbs)
			checked := 0
			for iter := 0; iter < iters; iter++ {
				wb := wbs[iter/span]
				if iter%span == 0 {
					state.chip.WriteBack(wb.ep, wb.nLSB)
					ex.retune()
				}
				job := &ex.job
				job.kind = jobUpdatePhase
				job.key = iterKey(o.Seed, 1, iter)
				job.temp = temp * (1 - float64(iter)/float64(iters))
				vdd, _ := o.Schedule.At(iter)
				job.epoch = o.Fabric.At(vdd)
				for si := range ex.plan.steps {
					st := &ex.plan.steps[si]
					job.phase = st.phase
					ex.runStep(job, st)
					if !mode.settles() {
						if n := settledCount(state); n != 0 {
							t.Fatalf("%v workers=%d iter %d: %d windows settled", mode, workers, iter, n)
						}
						continue
					}
					// Re-entering the epoch through a noisy one drops the
					// scratch memo and reads every code afresh.
					scratch.chip.WriteBack(wb.ep, 1)
					scratch.chip.WriteBack(wb.ep, wb.nLSB)
					for w := 0; w < nc; w++ {
						if !state.chip.Settled(w) {
							continue
						}
						checked++
						p := int(state.sizes[w])
						prev, next := (w+nc-1)%nc, (w+1)%nc
						for j := 1; j < p; j++ {
							for i := 0; i < j; i++ {
								d := scratch.chip.SwapDelta(w, state.orders[w], state.orders[prev].Last(), state.orders[next].First(int(state.sizes[next])), i, j)
								if d < 0 {
									t.Fatalf("%v workers=%d iter %d: settled window %d has pair (%d,%d) at ΔH %d",
										mode, workers, iter, w, i, j, d)
								}
							}
						}
					}
				}
			}
			ex.close()
			if mode.settles() && checked == 0 {
				t.Fatalf("%v workers=%d: no window ever settled", mode, workers)
			}
		}
	}
}

// drawLevel lays out a level of nc clusters of the given sizes with
// windows that hold no weights, and settles every window for which
// settle reports true: with every ΔH 0, probing all of a window's slot
// pairs settles it.
func drawLevel(sizes []uint8, settle func(ci int) bool) *levelState {
	nc := len(sizes)
	state := &levelState{sizes: sizes, orders: make([]cim.Order, nc)}
	shapes := make([]cim.Shape, nc)
	for ci, p := range sizes {
		state.orders[ci] = cim.IdentityOrder(int(p))
		shapes[ci] = cim.Shape{P: int(p), PPrev: int(sizes[(ci+nc-1)%nc]), PNext: int(sizes[(ci+1)%nc])}
	}
	state.chip = cim.NewLevel(shapes)
	state.chip.Settles = true
	for ci, p := range sizes {
		if !settle(ci) {
			continue
		}
		for j := 1; j < int(p); j++ {
			for i := 0; i < j; i++ {
				state.chip.SwapDelta(ci, state.orders[ci], -1, -1, i, j)
			}
		}
	}
	return state
}

// TestDrawPassMatchesProposal pins drawPass's inlined hash and direct
// remainders to the proposal oracle for every cluster size 2 to 8 over
// many keys, with every third window settled: each batch must buffer
// exactly the oracle's draws of the unsettled clusters, in batch order,
// each with i != j, and nothing for a settled one.
func TestDrawPassMatchesProposal(t *testing.T) {
	// Cluster ci has 2 + ci%7 children, so every batch mixes all sizes,
	// settled and not.
	const nc = 7 * drawBatch
	sizes := make([]uint8, nc)
	phase := make([]int, nc)
	for ci := range phase {
		sizes[ci] = uint8(2 + ci%7)
		phase[ci] = ci
	}
	state := drawLevel(sizes, func(ci int) bool { return ci%3 == 0 })
	for ci := range phase {
		if state.chip.Settled(ci) != (ci%3 == 0) {
			t.Fatalf("cluster %d: settled %v", ci, state.chip.Settled(ci))
		}
	}
	var buf [drawBatch]draw
	draws := 0
	for _, seed := range []uint64{0, 7, 1 << 63, 0xfeedface} {
		for level := 0; level < 14; level += 3 {
			for iter := 0; iter < 400; iter += 13 {
				key := iterKey(seed, level, iter)
				for start := 0; start < nc; start += drawBatch {
					batch := phase[start : start+drawBatch]
					n := drawPass(state, batch, key, &buf)
					k := 0
					for _, ci := range batch {
						if ci%3 == 0 {
							continue
						}
						i, j := proposal(clusterKey(key, ci), int(sizes[ci]))
						want := draw{ci: int32(ci), i: uint8(i), j: uint8(j)}
						if k >= n || buf[k] != want {
							t.Fatalf("seed %d level %d iter %d cluster %d: draw %d of %d is %+v, oracle %+v",
								seed, level, iter, ci, k, n, buf[min(k, n)], want)
						}
						if i == j || i >= int(sizes[ci]) || j >= int(sizes[ci]) {
							t.Fatalf("cluster %d of %d children drew (%d, %d)", ci, sizes[ci], i, j)
						}
						k++
						draws++
					}
					if k != n {
						t.Fatalf("seed %d level %d iter %d: drawPass buffered %d draws, oracle %d", seed, level, iter, n, k)
					}
				}
			}
		}
	}
	if draws < 100000 {
		t.Fatalf("only %d draws compared", draws)
	}
}

// TestDrawPairsUniform is a chi-square test of drawPass's ordered slot
// pairs for each cluster size p = 3..8: 200,000 draws (5,000 clusters
// over 40 iterations of one seed and level) fall into p(p−1) cells, and
// the statistic must stay below the chi-square quantile whose upper
// tail is 10⁻⁴ at p(p−1) − 1 degrees of freedom. The seeds are fixed,
// so the test is deterministic; a uniform draw would fail one of the
// six sizes for at most 6 in 10⁴ choices of seed.
func TestDrawPairsUniform(t *testing.T) {
	// limits[p-3] is the 1 − 10⁻⁴ quantile of chi-square with p(p−1) − 1
	// degrees of freedom.
	limits := [...]float64{25.74, 37.37, 50.80, 66.15, 83.47, 102.78}
	const nc, iters = 5000, 40
	phase := make([]int, nc)
	for ci := range phase {
		phase[ci] = ci
	}
	for p := 3; p <= 8; p++ {
		sizes := make([]uint8, nc)
		for ci := range sizes {
			sizes[ci] = uint8(p)
		}
		state := drawLevel(sizes, func(int) bool { return false })
		counts := make([]float64, p*p)
		var buf [drawBatch]draw
		for iter := 0; iter < iters; iter++ {
			key := iterKey(uint64(p)*1000003, 4, iter)
			for start := 0; start < nc; start += drawBatch {
				n := drawPass(state, phase[start:min(start+drawBatch, nc)], key, &buf)
				for _, d := range buf[:n] {
					counts[int(d.i)*p+int(d.j)]++
				}
			}
		}
		expect := float64(nc*iters) / float64(p*(p-1))
		chi := 0.0
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				c := counts[i*p+j]
				if i == j {
					if c != 0 {
						t.Fatalf("p=%d: %v draws of the pair (%d, %d)", p, c, i, j)
					}
					continue
				}
				chi += (c - expect) * (c - expect) / expect
			}
		}
		if chi > limits[p-3] {
			t.Errorf("p=%d: chi-square %.2f on %d dof exceeds %.2f", p, chi, p*(p-1)-1, limits[p-3])
		}
		t.Logf("p=%d: chi-square %.2f on %d dof (limit %.2f)", p, chi, p*(p-1)-1, limits[p-3])
	}
}

// TestProposedIsClusterCycles checks Stats.Proposed against its closed
// form: every annealed level proposes once per iteration for each
// cluster of two or more children, settled or not.
func TestProposedIsClusterCycles(t *testing.T) {
	in := tsplib.Generate("proposed", 3000, tsplib.StyleClustered, 5)
	for _, strategy := range []cluster.Strategy{{Kind: cluster.SemiFlex, P: 2}, {Kind: cluster.SemiFlex, P: 3}, {Kind: cluster.SemiFlex, P: 4}} {
		for _, mode := range []Mode{ModeNoisyCIM, ModeMetropolis} {
			o := solveOpts(mode, 3)
			o.Strategy = strategy
			res, err := Solve(in, o)
			if err != nil {
				t.Fatal(err)
			}
			h, err := cluster.Build(in.Cities, strategy)
			if err != nil {
				t.Fatal(err)
			}
			iters := int64(o.withDefaults().Schedule.TotalIters())
			want := int64(0)
			for li := 1; li < h.NumLevels(); li++ {
				for _, n := range h.Levels[li] {
					if len(n.Children) >= 2 {
						want += iters
					}
				}
			}
			if res.Stats.Proposed != want || want == 0 {
				t.Fatalf("%+v %v: Proposed %d, closed form %d", strategy, mode, res.Stats.Proposed, want)
			}
		}
	}
}

// TestWorkerPanicFailsTheDispatch injects a panic into a background
// worker's share of a pooled update phase through the executor's run
// seam. The panic must not escape the worker: runStep re-raises it on
// the dispatching goroutine, carrying the value and the worker's stack,
// after every engaged worker is done; the worker keeps serving later
// dispatches; and a fresh solve still reproduces its golden length.
func TestWorkerPanicFailsTheDispatch(t *testing.T) {
	in := tsplib.Generate("worker-panic", 3000, tsplib.StyleClustered, 5)
	h, err := cluster.Build(in.Cities, cluster.Strategy{Kind: cluster.SemiFlex, P: 3})
	if err != nil {
		t.Fatal(err)
	}
	o := solveOpts(ModeNoisyCIM, 3).withDefaults()
	o.Workers = 2
	ex := newExecutor(o, in.N())
	defer ex.close()
	state := newLevelState(h.Levels[1])
	ex.buildLevel(state, &o)
	state.chip.WriteBack(writeBackEpoch(&o, 0))

	var armed atomic.Bool
	var workerRuns atomic.Int64
	run := ex.run
	ex.run = func(w int, job *poolJob) {
		if w == 1 {
			workerRuns.Add(1)
			if armed.CompareAndSwap(true, false) {
				panic("injected fault")
			}
		}
		run(w, job)
	}
	iteration := func(iter int) (recovered any) {
		defer func() { recovered = recover() }()
		job := &ex.job
		job.kind = jobUpdatePhase
		job.key = iterKey(o.Seed, 1, iter)
		for si := range ex.plan.steps {
			st := &ex.plan.steps[si]
			job.phase = st.phase
			ex.runStep(job, st)
		}
		return nil
	}
	if ex.plan.steps[0].fan == 0 {
		t.Fatal("the first phase runs inline, so no worker can panic")
	}

	armed.Store(true)
	v := iteration(0)
	var wp *workerPanic
	if err, ok := v.(error); !ok || !errors.As(err, &wp) {
		t.Fatalf("runStep raised %v (%T), want a *workerPanic", v, v)
	}
	if msg := wp.Error(); !strings.Contains(msg, "injected fault") || !strings.Contains(msg, "update_test.go") {
		t.Fatalf("worker panic lacks the value or the worker's stack:\n%s", msg)
	}
	if n := ex.pending.Load(); n != 0 {
		t.Fatalf("%d workers still pending after the re-raise", n)
	}

	// The worker recovered and serves on; nothing is left to re-raise.
	before := workerRuns.Load()
	if v := iteration(1); v != nil {
		t.Fatalf("the dispatch after the panic raised %v", v)
	}
	if workerRuns.Load() == before {
		t.Fatal("the background worker ran no share after its panic")
	}

	golden := solveOpts(ModeNoisyCIM, 1)
	golden.Workers = 2
	res, err := Solve(tsplib.Generate("cl-golden", 400, tsplib.StyleClustered, 99), golden)
	if err != nil {
		t.Fatal(err)
	}
	if res.Length != goldenLengths[0] {
		t.Fatalf("solve after a worker panic: length %v, golden %v", res.Length, goldenLengths[0])
	}
}
