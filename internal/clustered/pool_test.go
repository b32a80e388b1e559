package clustered

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cimsa/internal/cluster"
	"cimsa/internal/tsplib"
)

// TestEffectiveWorkers pins the Workers resolution table: an explicit
// count as given, 0 resolved automatically from the instance size.
func TestEffectiveWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name string
		opt  Options
		n    int
		want int
	}{
		{"one inline", Options{Workers: 1}, 5000, 1},
		{"explicit", Options{Workers: 5}, 50, 5},
		{"zero is auto", Options{}, 100000, autoWorkers(100000, procs)},
		{"auto small instance", Options{}, autoMinCities - 1, 1},
	}
	for _, c := range cases {
		if got := c.opt.effectiveWorkers(c.n); got != c.want {
			t.Errorf("%s: effectiveWorkers(%d) = %d, want %d", c.name, c.n, got, c.want)
		}
	}
}

// TestAutoWorkers pins the auto pool-size policy: sequential below the
// size floor or on a single-core runtime, then one worker per
// autoCitiesPerWorker cities, clamped to [2, GOMAXPROCS].
func TestAutoWorkers(t *testing.T) {
	cases := []struct {
		n, procs, want int
	}{
		{autoMinCities - 1, 8, 1}, // under the floor: sequential
		{100000, 1, 1},            // one proc: sequential
		{autoMinCities, 8, 2},     // at the floor: minimum pool
		{4999, 2, 2},
		{10000, 4, 4},
		{10000, 8, 4},   // 10000/2500 = 4 < procs
		{85900, 4, 4},   // paper headline scale, capped by procs
		{85900, 64, 34}, // 85900/2500, under a wide cap
	}
	for _, c := range cases {
		if got := autoWorkers(c.n, c.procs); got != c.want {
			t.Errorf("autoWorkers(%d, %d) = %d, want %d", c.n, c.procs, got, c.want)
		}
	}
}

// TestWorkersAutoBitIdentical pins that an auto-resolved pool — forced
// to actually engage by a multi-proc GOMAXPROCS — produces the same
// tour, length and stats as sequential execution.
func TestWorkersAutoBitIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	in := tsplib.Generate("cl-auto", autoMinCities+600, tsplib.StyleClustered, 17)
	opt := solveOpts(ModeNoisyCIM, 18)
	if w := (Options{}).effectiveWorkers(in.N()); w < 2 {
		t.Fatalf("auto resolved to %d workers; test needs a real pool", w)
	}
	opt.Workers = 1
	seq, err := Solve(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 0
	auto, err := Solve(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Length != seq.Length {
		t.Fatalf("auto length %v != sequential %v", auto.Length, seq.Length)
	}
	if auto.Stats != seq.Stats {
		t.Fatalf("auto stats %+v != sequential %+v", auto.Stats, seq.Stats)
	}
	for i := range seq.Tour {
		if auto.Tour[i] != seq.Tour[i] {
			t.Fatalf("tours differ at position %d", i)
		}
	}
}

// TestTuneStepFanOutBound pins the dispatch fan-out cap: a step engages
// at most ceil(items/grab)-1 background workers — one per cursor grab
// beyond the dispatcher's own — never the whole pool.
func TestTuneStepFanOutBound(t *testing.T) {
	ex := &executor{workers: 8}
	ex.costNs[jobUpdatePhase] = float64(grabTargetNs) / 8 // grab = 8
	cases := []struct {
		items   int
		wantFan int32
	}{
		{0, 0},   // empty: nothing to engage
		{1, 0},   // single item: inline
		{8, 0},   // exactly one grab: inline
		{9, 1},   // two grabs: dispatcher + one worker
		{16, 1},  // still two grabs
		{17, 2},  // three grabs
		{56, 6},  // seven grabs
		{64, 7},  // eight grabs: full pool
		{640, 7}, // many grabs: capped at workers-1
	}
	for _, c := range cases {
		st := dispatchStep{items: c.items}
		ex.tuneStep(&st, jobUpdatePhase)
		if st.grab != 8 {
			t.Fatalf("items=%d: grab %d, want 8", c.items, st.grab)
		}
		if st.fan != c.wantFan {
			t.Errorf("items=%d: fan %d, want %d", c.items, st.fan, c.wantFan)
		}
	}
	// A single-worker executor never fans out at all.
	solo := &executor{workers: 1}
	solo.costNs[jobUpdatePhase] = float64(grabTargetNs) / 8
	st := dispatchStep{items: 1000}
	solo.tuneStep(&st, jobUpdatePhase)
	if st.fan != 0 {
		t.Fatalf("single-worker fan %d, want 0", st.fan)
	}
}

// TestIdleWorkersNotWoken drives the barrier directly with a counting
// stub: a dispatch with two grabs' worth of items must engage only the
// dispatcher plus one background worker, and the rest of an 8-wide pool
// must see neither a run nor a wake token. A second, one-grab dispatch
// must stay entirely inline without even advancing the barrier epoch.
func TestIdleWorkersNotWoken(t *testing.T) {
	ex := newExecutor(Options{Workers: 8}, 100)
	defer ex.close()
	var runs [8]atomic.Int64
	var items atomic.Int64
	ex.run = func(w int, job *poolJob) {
		runs[w].Add(1)
		n := int64(len(job.phase))
		for {
			end := job.cursor.Add(job.grab)
			start := end - job.grab
			if start >= n {
				return
			}
			if end > n {
				end = n
			}
			items.Add(end - start)
		}
	}
	// Let the background workers reach their parked state so the wake
	// accounting below is exact rather than racing their spin phase.
	time.Sleep(20 * time.Millisecond)

	job := &ex.job
	job.kind = jobUpdatePhase
	job.phase = make([]int, 9)
	st := dispatchStep{phase: job.phase, items: 9, grab: 8, fan: 1}
	ex.runStep(job, &st)

	if got := items.Load(); got != 9 {
		t.Fatalf("processed %d items, want 9", got)
	}
	if runs[0].Load() != 1 {
		t.Fatalf("dispatcher ran %d times, want 1", runs[0].Load())
	}
	for w := 2; w < 8; w++ {
		if n := runs[w].Load(); n != 0 {
			t.Errorf("idle worker %d ran %d times", w, n)
		}
	}
	for i := 1; i < len(ex.parks); i++ {
		if n := ex.parks[i].wakes.Load(); n != 0 {
			t.Errorf("idle worker %d received %d wake tokens", i+1, n)
		}
	}

	// One-grab dispatch: inline, no generation advance, no wakes anywhere.
	genBefore := ex.gen.Load()
	items.Store(0)
	job.phase = make([]int, 5)
	st = dispatchStep{phase: job.phase, items: 5, grab: 8, fan: 0}
	ex.runStep(job, &st)
	if got := items.Load(); got != 5 {
		t.Fatalf("inline dispatch processed %d items, want 5", got)
	}
	if g := ex.gen.Load(); g != genBefore {
		t.Fatalf("inline dispatch advanced the generation %#x -> %#x", genBefore, g)
	}
	if runs[0].Load() != 2 {
		t.Fatalf("dispatcher ran %d times, want 2", runs[0].Load())
	}
	total := int64(0)
	for w := 1; w < 8; w++ {
		total += runs[w].Load()
	}
	if total > 1 {
		t.Fatalf("background workers ran %d times total, want at most 1", total)
	}
}

// TestBarrierRunsEachDispatchOncePerEngagedWorker alternates narrow and
// wide fan-outs, so workers the narrow dispatches leave out are awake
// and racing the next wide dispatch's publication. Each background
// worker must run a dispatch at most once and only if the dispatch
// engaged it: a worker that paired an old sequence number with a new
// fan-out would run the wide dispatch twice, and the double decrement
// of pending would let the dispatcher return while it still ran, or
// hang the solve for good.
func TestBarrierRunsEachDispatchOncePerEngagedWorker(t *testing.T) {
	ex := newExecutor(Options{Workers: 4}, 100)
	defer ex.close()
	const rounds = 20000
	var runs [rounds][4]atomic.Int32
	var round atomic.Int64
	ex.run = func(w int, job *poolJob) {
		runs[round.Load()][w].Add(1)
		if w == 0 {
			runtime.Gosched()
		}
	}
	// The dispatches run on their own goroutine so a hung barrier fails
	// the test instead of stalling it.
	failure := make(chan string, 1)
	go func() {
		job := &ex.job
		for r := int64(0); r < rounds; r++ {
			round.Store(r)
			fan := int32(1)
			if r%2 == 1 {
				fan = 3
			}
			ex.runStep(job, &dispatchStep{fan: fan})
			for w := int32(1); w < 4; w++ {
				want := int32(0)
				if w <= fan {
					want = 1
				}
				if got := runs[r][w].Load(); got != want {
					failure <- fmt.Sprintf("dispatch %d (fan %d): worker %d ran %d times, want %d", r, fan, w, got, want)
					return
				}
			}
		}
		failure <- ""
	}()
	select {
	case msg := <-failure:
		if msg != "" {
			t.Fatal(msg)
		}
	case <-time.After(time.Minute):
		t.Fatal("barrier hung: a dispatch never saw its engaged workers finish")
	}
}

// TestBarrierManyDispatches hammers the generation barrier with back-to-back
// dispatches at varying fan-outs and checks every item is processed
// exactly once per dispatch — the invariant the solver's determinism
// rests on. Run with -race this also audits the barrier's
// publication ordering.
func TestBarrierManyDispatches(t *testing.T) {
	ex := newExecutor(Options{Workers: 4}, 100)
	defer ex.close()
	var items atomic.Int64
	ex.run = func(w int, job *poolJob) {
		n := int64(len(job.phase))
		for {
			end := job.cursor.Add(job.grab)
			start := end - job.grab
			if start >= n {
				return
			}
			if end > n {
				end = n
			}
			items.Add(end - start)
		}
	}
	job := &ex.job
	job.kind = jobUpdatePhase
	sizes := []int{1, 3, 7, 8, 9, 31, 64, 200, 513}
	const rounds = 200
	want := int64(0)
	for r := 0; r < rounds; r++ {
		for _, n := range sizes {
			job.phase = make([]int, n)
			st := dispatchStep{phase: job.phase, items: n, grab: 8}
			f := (n+7)/8 - 1
			if f > ex.workers-1 {
				f = ex.workers - 1
			}
			st.fan = int32(f)
			ex.runStep(job, &st)
			want += int64(n)
		}
	}
	if got := items.Load(); got != want {
		t.Fatalf("processed %d items, want %d", got, want)
	}
}

// TestMergeShardsInt64 is the regression test for the counter-narrowing
// bug: shard counts beyond 32-bit range must survive the merge into
// Stats without truncation.
func TestMergeShardsInt64(t *testing.T) {
	ex := &executor{workers: 2, shards: make([]statShard, 2)}
	big := int64(math.MaxInt32) + 7
	ex.shards[0] = statShard{proposed: big, accepted: big - 1}
	ex.shards[1] = statShard{proposed: 10, accepted: 20}
	var stats Stats
	ex.mergeShards(&stats)
	if stats.Proposed != big+10 {
		t.Errorf("Proposed = %d, want %d", stats.Proposed, big+10)
	}
	if stats.Accepted != big-1+20 {
		t.Errorf("Accepted = %d, want %d", stats.Accepted, big-1+20)
	}
	for i := range ex.shards {
		if ex.shards[i] != (statShard{}) {
			t.Errorf("shard %d not reset: %+v", i, ex.shards[i])
		}
	}
}

// TestPhasesSmallCounts audits phasesFor against chromaticPhases over
// nc = 0..5 — the range where the old construction emitted zero-length
// phases that were still dispatched — and pins the structural
// invariants: no empty phases, every cluster in exactly one phase, the
// odd-count extra phase present, and no two cycle-adjacent clusters
// sharing a phase (for nc > 2, where adjacency is irreflexive).
func TestPhasesSmallCounts(t *testing.T) {
	wantPhases := map[int][][]int{
		0: {},
		1: {{0}},
		2: {{1}, {0}},
		3: {{1}, {0}, {2}},
		4: {{1, 3}, {0, 2}},
		5: {{1, 3}, {0, 2}, {4}},
	}
	ex := &executor{workers: 1, shards: make([]statShard, 1)}
	for nc := 0; nc <= 5; nc++ {
		ref := chromaticPhases(nc)
		got := ex.phasesFor(uniformSizes(nc, 3))
		want := wantPhases[nc]
		if len(got) != len(want) || len(ref) != len(want) {
			t.Fatalf("nc=%d: phasesFor has %d phases, chromaticPhases %d, want %d",
				nc, len(got), len(ref), len(want))
		}
		seen := make([]bool, nc)
		for pi := range want {
			if len(got[pi]) == 0 || len(ref[pi]) == 0 {
				t.Fatalf("nc=%d: empty phase %d emitted", nc, pi)
			}
			for i := range want[pi] {
				if got[pi][i] != want[pi][i] || ref[pi][i] != want[pi][i] {
					t.Fatalf("nc=%d phase %d: phasesFor %v, chromaticPhases %v, want %v",
						nc, pi, got[pi], ref[pi], want[pi])
				}
				ci := want[pi][i]
				if seen[ci] {
					t.Fatalf("nc=%d: cluster %d in two phases", nc, ci)
				}
				seen[ci] = true
			}
			if nc > 2 {
				inPhase := make(map[int]bool, len(want[pi]))
				for _, ci := range want[pi] {
					inPhase[ci] = true
				}
				for _, ci := range want[pi] {
					if inPhase[(ci+1)%nc] || inPhase[(ci-1+nc)%nc] {
						t.Fatalf("nc=%d: cluster %d shares phase %d with a neighbour", nc, ci, pi)
					}
				}
			}
		}
		for ci, ok := range seen {
			if !ok {
				t.Fatalf("nc=%d: cluster %d never scheduled", nc, ci)
			}
		}
		if nc%2 == 1 && nc > 1 {
			last := want[len(want)-1]
			if len(last) != 1 || last[0] != nc-1 {
				t.Fatalf("nc=%d: odd-count extra phase is %v, want [%d]", nc, last, nc-1)
			}
		}
	}
}

// TestUpdateIterationAllocatesNothing pins the hot loop's allocation
// budget at zero: once a level is built, one update iteration — every
// chromatic phase, inline or on the pool — and a write-back allocate
// nothing, in every mode.
func TestUpdateIterationAllocatesNothing(t *testing.T) {
	in := tsplib.Generate("allocs", 3000, tsplib.StyleClustered, 5)
	h, err := cluster.Build(in.Cities, cluster.Strategy{Kind: cluster.SemiFlex, P: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeNoisyCIM, ModeMetropolis, ModeNoisySpins} {
		for _, workers := range []int{1, 2} {
			o := solveOpts(mode, 3).withDefaults()
			o.Workers = workers
			ex := newExecutor(o, in.N())
			state := newLevelState(h.Levels[1])
			ex.buildLevel(state, &o)
			ep, nLSB := writeBackEpoch(&o, 0)
			state.chip.WriteBack(ep, nLSB)
			job := &ex.job
			job.temp = metropolisTemp(state)
			job.epoch = ep
			iter := 0
			allocs := testing.AllocsPerRun(20, func() {
				state.chip.WriteBack(ep, nLSB)
				job.kind = jobUpdatePhase
				job.key = iterKey(o.Seed, 1, iter)
				for si := range ex.plan.steps {
					st := &ex.plan.steps[si]
					job.phase = st.phase
					ex.runStep(job, st)
				}
				iter++
			})
			ex.close()
			if allocs != 0 {
				t.Errorf("%v workers=%d: %v allocations per update iteration, want 0", mode, workers, allocs)
			}
		}
	}
}
