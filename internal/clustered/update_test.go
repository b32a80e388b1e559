package clustered

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"cimsa/internal/cluster"
	"cimsa/internal/noise"
	"cimsa/internal/tsplib"
)

// updateCluster is the per-cluster reference updatePhase must
// reproduce: draw cluster ci's slot pair, drop i == j, then probe,
// accept and swap, one cluster at a time. It returns the proposal and
// acceptance counts (0 or 1 each).
func updateCluster(state *levelState, ci int, key uint64, o *Options, ep noise.Epoch, temp float64) (proposed, accepted int) {
	p := int(state.sizes[ci])
	hc := clusterKey(key, ci)
	i, j := proposal(hc, p)
	if i == j {
		return 0, 0
	}
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
	if !accept(state, ci, delta, o.Mode, hc, temp) {
		return 1, 0
	}
	state.orders[ci] = order.Swap(p, i, j)
	return 1, 1
}

// TestUpdatePhaseMatchesPerClusterReference runs two copies of a
// 1,000-cluster level through a noisy write-back epoch and into the
// next, one on the executor's two-pass loop and one through the
// per-cluster reference, and requires every order word after every
// iteration, and the Proposed and Accepted totals, to agree. Its
// phases are several times the draw buffer, and at two workers each
// grab spans more than one buffer too.
func TestUpdatePhaseMatchesPerClusterReference(t *testing.T) {
	in := tsplib.Generate("two-pass", 3000, tsplib.StyleClustered, 5)
	h, err := cluster.Build(in.Cities, cluster.Strategy{Kind: cluster.SemiFlex, P: 3})
	if err != nil {
		t.Fatal(err)
	}
	level := h.Levels[1]
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
			var refProposed, refAccepted int64
			temp := metropolisTemp(got)
			iters := o.Schedule.EpochIters + 5
			for iter := 0; iter < iters; iter++ {
				if iter%o.Schedule.EpochIters == 0 {
					got.chip.WriteBack(writeBackEpoch(&o, iter))
					ref.chip.WriteBack(writeBackEpoch(&o, iter))
					ex.retune()
				}
				job := &ex.job
				job.kind = jobUpdatePhase
				job.key = iterKey(o.Seed, 1, iter)
				job.temp = temp * (1 - float64(iter)/float64(o.Schedule.TotalIters()))
				vdd, _ := o.Schedule.At(iter)
				job.epoch = o.Fabric.At(vdd)
				for si := range ex.plan.steps {
					st := &ex.plan.steps[si]
					job.phase = st.phase
					ex.runStep(job, st)
					for _, ci := range st.phase {
						p, a := updateCluster(ref, ci, job.key, &o, job.epoch, job.temp)
						refProposed += int64(p)
						refAccepted += int64(a)
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
			if stats.Proposed != refProposed || stats.Accepted != refAccepted {
				t.Fatalf("%v workers=%d: proposed/accepted %d/%d, reference %d/%d",
					mode, workers, stats.Proposed, stats.Accepted, refProposed, refAccepted)
			}
			if refAccepted == 0 {
				t.Fatalf("%v workers=%d: no swap accepted, so the orders pinned nothing", mode, workers)
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
