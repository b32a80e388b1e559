package clustered

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"cimsa/internal/geom"
	"cimsa/internal/noise"
)

// The executor is the solve's persistent execution engine: a pool of
// workers created once in Solve and reused by every phase of every
// iteration of every level. The hardware updates all same-phase windows
// in one cycle; the software analogue must not pay a goroutine spawn or
// even a channel send per phase (levels × iterations × phases of them
// per solve) to mimic that. A phase hand-off is a generation barrier:
// workers watch an atomic dispatch generation, spin briefly when work is
// imminent, and park on a per-worker slot otherwise, so dispatching a
// phase costs a few atomic stores plus one wake per *engaged* parked
// worker — and engaging is capped by how many cursor grabs the phase
// actually has, so small phases run inline and never touch the pool.
//
// Determinism: proposals and accept uniforms are derived from
// (seed, level, iteration, cluster) counters and same-phase clusters
// are mutually non-adjacent, so the partition of a phase across workers
// — the grab size, the fan-out, and the order chunks are grabbed in —
// cannot change any result. Stats are accumulated into per-worker
// shards and merged once per level; every counter is a sum, so the
// merge is order-independent too.

const (
	// autoMinCities is the instance size below which an automatic
	// (Workers == 0) pool stays sequential: the leaf level of a smaller
	// instance has so few clusters per chromatic phase that nearly every
	// dispatch would run inline under the fan-out cap anyway.
	autoMinCities = 2000
	// autoCitiesPerWorker sizes the auto pool: one worker per this many
	// cities, capped at GOMAXPROCS. The leaf level has ~n/3 clusters,
	// so this gives each worker several hundred leaf updates per phase.
	autoCitiesPerWorker = 2500
)

// effectiveWorkers resolves Options.Workers to a pool size for an
// n-city instance: an explicit count as given, 0 from the instance size
// and GOMAXPROCS. Small instances run sequentially (their phases are
// too short to amortize even one barrier hand-off), large ones get up
// to GOMAXPROCS workers; within a solve, the per-phase fan-out cap then
// decides per level how much of that pool a dispatch actually engages.
func (o Options) effectiveWorkers(n int) int {
	if o.Workers > 0 {
		return o.Workers
	}
	return autoWorkers(n, runtime.GOMAXPROCS(0))
}

// autoWorkers picks the automatic pool size for an n-city instance on
// a procs-wide runtime.
func autoWorkers(n, procs int) int {
	if procs < 2 || n < autoMinCities {
		return 1
	}
	w := n / autoCitiesPerWorker
	if w > procs {
		w = procs
	}
	if w < 2 {
		w = 2
	}
	return w
}

// statShard is one worker's private accept counter and accepts log,
// padded to a cache line so concurrent increments never false-share.
// accepts
// lists the clusters whose swap the worker accepted in the current
// dispatch; runStep unsettles their neighbours and truncates it. Its
// capacity covers a whole phase, so appending never allocates.
type statShard struct {
	accepted int64
	accepts  []int32
	_        [32]byte
}

type jobKind int

const (
	// jobUpdatePhase runs updatePhase over job.phase.
	jobUpdatePhase jobKind = iota
	// jobLoadWindows loads the weight window of every cluster of
	// job.state.
	jobLoadWindows
	jobKinds
)

// poolJob describes one unit of fan-out work. A single job struct is
// reused across dispatches (the dispatcher blocks until all engaged
// workers finish, so rewriting its fields between dispatches is
// race-free).
type poolJob struct {
	kind  jobKind
	state *levelState
	phase []int
	// key is the update iteration's iterKey.
	key  uint64
	opt  *Options
	temp float64
	// epoch is the iteration's pre-hoisted fabric pass for the
	// noisy-spins input corruption (unused by the other modes).
	epoch noise.Epoch
	// grab is the dispatch's cursor grab size (set per dispatch from the
	// plan, shared by every engaged worker).
	grab   int64
	cursor atomic.Int64
}

// parkSlot is one goroutine's parking spot in the barrier. A waiter
// that exhausts its spin budget publishes parked=true, re-checks the
// condition it is waiting on, and blocks on wake; a waker transfers a
// token by winning the CAS from true back to false. The send is
// non-blocking over a one-slot buffer: a CAS win guarantees either the
// buffer is empty (the token lands) or a token is already waiting —
// either way the blocked receive completes. Waiters always re-check
// their condition after waking, so a stale token (a late waker from a
// previous generation) costs one extra loop, never correctness.
type parkSlot struct {
	parked atomic.Bool
	wake   chan struct{}
	// wakes counts delivered wake tokens — the price the barrier is
	// designed to avoid paying; tests pin that idle workers never pay it.
	wakes atomic.Int64
}

func newParkSlot() *parkSlot { return &parkSlot{wake: make(chan struct{}, 1)} }

// wakeIfParked delivers one wake token iff the owner is parked.
func (s *parkSlot) wakeIfParked() {
	if s.parked.CompareAndSwap(true, false) {
		s.wakes.Add(1)
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// spinWait bounds how many yield-and-recheck rounds a waiter spends
// before parking. Every round yields the processor, so oversubscribed
// configurations (more workers than cores) cannot starve the goroutine
// that will advance the barrier state.
const spinWait = 32

// dispatchStep is one planned dispatch: a chromatic phase (or the
// level's window loads) with its grab size and worker fan-out
// precomputed, so issuing it from the iteration loop does no sizing
// arithmetic at all.
type dispatchStep struct {
	// phase is the cluster-index list for update steps; nil for the
	// load step, which covers every cluster of the level.
	phase []int
	items int
	grab  int64
	// fan is how many background workers the dispatch engages: the
	// number of cursor grabs beyond the dispatcher's own first one,
	// capped at the pool size. 0 means the dispatcher runs the whole
	// step inline and the pool is never touched.
	fan int32
}

// levelPlan is the fused dispatch plan for one level: the window loads
// and every dispatch the iteration loop will issue, precomputed once per
// level and retuned at write-back epochs as the measured per-item costs
// move.
type levelPlan struct {
	steps []dispatchStep
	load  dispatchStep
}

type executor struct {
	workers int
	shards  []statShard
	job     poolJob

	// Barrier state. gen is the published generation: a sequence number
	// advanced once per pooled dispatch, with that dispatch's fan-out
	// (its engaged background-worker count) in the low genFanBits. They
	// share one word so a worker reads a dispatch's sequence number and
	// fan-out together. Read separately, a worker could pair one
	// dispatch's sequence number with the next one's fan-out, run the
	// next dispatch's job under the old number, run it again under the
	// new one, and so decrement pending twice: the dispatcher then
	// returns while a worker still runs, or waits forever. pending
	// counts engaged workers still running. parks[w-1] is background
	// worker w's slot; dpark is the dispatcher's completion wait. closed
	// tells workers to exit.
	gen     atomic.Uint64
	pending atomic.Int32
	closed  atomic.Bool
	parks   []*parkSlot
	dpark   *parkSlot

	// run executes one worker's share of a job; it is runJob except in
	// barrier tests, which substitute a counting stub.
	run func(w int, job *poolJob)
	// panicked holds the first panic a background worker recovered
	// since the dispatcher last checked; runStep re-raises it on the
	// solve goroutine.
	panicked atomic.Pointer[workerPanic]

	// costNs is the measured per-item cost of each job kind (an EMA over
	// first-chunk timings, worker 0 only, so no synchronization); plan
	// is the level's fused dispatch plan derived from it.
	costNs [jobKinds]float64
	plan   levelPlan

	// objPts backs levelObjective across iterations and levels.
	objPts []geom.Point
	// phases / phaseIdx back the chromatic phase lists across levels.
	phases   [][]int
	phaseIdx []int
}

// newExecutor starts the solve's worker pool for an n-city instance.
// Workers beyond the first are background goroutines; the dispatching
// goroutine itself acts as worker 0, so a pool of one runs everything
// inline with no synchronization at all.
func newExecutor(o Options, n int) *executor {
	// Every worker count gives the same results, so capping the pool at
	// what gen's fan-out field can address changes nothing but speed.
	w := min(o.effectiveWorkers(n), 1<<genFanBits)
	ex := &executor{workers: w, shards: make([]statShard, w)}
	ex.run = ex.runJob
	ex.costNs[jobUpdatePhase] = defaultUpdateCostNs
	ex.costNs[jobLoadWindows] = defaultLoadCostNs
	if w > 1 {
		ex.dpark = newParkSlot()
		ex.parks = make([]*parkSlot, w-1)
		for i := range ex.parks {
			ex.parks[i] = newParkSlot()
		}
		for i := range ex.parks {
			go ex.workerLoop(i + 1)
		}
	}
	return ex
}

// genFanBits is the width of gen's fan-out field.
const genFanBits = 16

// publish advances the barrier generation, engaging the first fan
// background workers. Only the dispatching goroutine writes gen.
func (ex *executor) publish(fan int32) {
	seq := ex.gen.Load()>>genFanBits + 1
	ex.gen.Store(seq<<genFanBits | uint64(fan))
}

// close releases the background workers. The executor must not be used
// afterwards. closed is published before the generation advances, so
// any worker that observes the new generation also observes the
// shutdown.
func (ex *executor) close() {
	if len(ex.parks) == 0 {
		return
	}
	ex.closed.Store(true)
	ex.publish(0)
	for _, s := range ex.parks {
		s.wakeIfParked()
	}
}

// workerLoop is one background worker: wait for the generation to
// advance, run a share of the job if engaged, repeat. A worker the
// dispatch did not engage pays two atomic loads — not a scheduler
// wake-up — and goes straight back to waiting. A panic in a job does
// not end the process: serve recovers it, and the worker serves on.
func (ex *executor) workerLoop(w int) {
	var seen uint64
	for !ex.serve(w, &seen) {
		// serve recovered a job's panic; keep serving.
	}
}

// serve runs worker w's loop until the pool closes, and then reports
// true. If a job panics, serve records the first such panic for runStep
// to re-raise, completes the worker's share of the barrier and reports
// false. The recover is armed once per serve call, not once per job,
// and seen outlives the call, so the job that panicked never runs
// again.
func (ex *executor) serve(w int, seen *uint64) (closed bool) {
	defer func() {
		if v := recover(); v != nil {
			ex.panicked.CompareAndSwap(nil, &workerPanic{worker: w, value: v, stack: debug.Stack()})
			ex.done()
		}
	}()
	slot := ex.parks[w-1]
	for {
		g := ex.gen.Load()
		if ex.closed.Load() {
			return true
		}
		if g == *seen {
			ex.waitGen(slot, *seen)
			continue
		}
		*seen = g
		if uint64(w) <= g&(1<<genFanBits-1) {
			ex.run(w, &ex.job)
			ex.done()
		}
	}
}

// done marks one engaged background worker's share of the current
// dispatch finished, waking the dispatcher after the last one.
func (ex *executor) done() {
	if ex.pending.Add(-1) == 0 {
		ex.dpark.wakeIfParked()
	}
}

// workerPanic is a panic recovered on a background worker, with the
// worker's stack at the panic.
type workerPanic struct {
	worker int
	value  any
	stack  []byte
}

// Error reports the panic value and the worker's stack: runStep
// re-raises the panic on the solve goroutine, whose own stack does not
// show where the worker failed.
func (p *workerPanic) Error() string {
	return fmt.Sprintf("clustered: pool worker %d panicked: %v\n%s", p.worker, p.value, p.stack)
}

// waitGen blocks worker w until the generation moves past seen: a
// bounded yield-and-recheck spin (phases arrive back to back
// mid-level), then a park on the worker's slot. The parked flag is
// published before the final generation re-check, and the dispatcher
// advances the generation before scanning parked flags, so one side
// always observes the other (standard Dekker ordering under Go's
// sequentially consistent atomics); a missed-wake sleep cannot happen.
func (ex *executor) waitGen(slot *parkSlot, seen uint64) {
	for i := 0; i < spinWait; i++ {
		if ex.gen.Load() != seen {
			return
		}
		runtime.Gosched()
	}
	slot.parked.Store(true)
	if ex.gen.Load() != seen || ex.closed.Load() {
		// Advanced while parking: retract the park, or — if a waker
		// already won the CAS — consume the token it guaranteed.
		if !slot.parked.CompareAndSwap(true, false) {
			<-slot.wake
		}
		return
	}
	<-slot.wake
}

// awaitPending blocks the dispatcher until every engaged worker has
// finished the current generation. Completion tokens can be stale — a
// worker that ended a *previous* generation may deliver its wake
// arbitrarily late — so the loop re-checks pending after every wake;
// the authoritative state is the counter, the token is only a kick.
func (ex *executor) awaitPending() {
	for {
		for i := 0; i < spinWait; i++ {
			if ex.pending.Load() == 0 {
				return
			}
			runtime.Gosched()
		}
		ex.dpark.parked.Store(true)
		if ex.pending.Load() == 0 {
			if !ex.dpark.parked.CompareAndSwap(true, false) {
				<-ex.dpark.wake
			}
			return
		}
		<-ex.dpark.wake
	}
}

const (
	// grabTargetNs is the work one cursor grab should cover: coarse
	// enough that the atomic cursor add — and, worst case, the one-time
	// barrier wake — is noise, fine enough that the tail of a phase
	// still balances across the pool.
	grabTargetNs = 16384
	// Cost seeds before the first measurement, set from the benchmarked
	// per-item costs of the reference hardware; only a solve's first
	// dispatches run on them, every later one uses the measured EMA.
	defaultUpdateCostNs = 300
	defaultLoadCostNs   = 1000
)

// grabFor converts the measured per-item cost of a job kind into a
// cursor grab size covering ~grabTargetNs of work.
func (ex *executor) grabFor(kind jobKind) int64 {
	cost := ex.costNs[kind]
	if cost < 1 {
		cost = 1
	}
	grab := int64(grabTargetNs / cost)
	var lo, hi int64 = 4, 512
	if grab < lo {
		grab = lo
	}
	if grab > hi {
		grab = hi
	}
	return grab
}

// observeCost folds one measured chunk into the per-item cost EMA. Only
// worker 0 measures (and only its first chunk per dispatch), so the
// estimate needs no synchronization; the 1/4 gain is stable against
// scheduler noise yet adapts within one write-back epoch.
func (ex *executor) observeCost(kind jobKind, d time.Duration, items int64) {
	if items <= 0 {
		return
	}
	sample := float64(d.Nanoseconds()) / float64(items)
	ex.costNs[kind] = ex.costNs[kind]*0.75 + sample*0.25
}

// planLevel builds the fused dispatch plan of a level whose clusters
// have the given sizes: the window loads plus the chromatic phases,
// each with grab and fan-out resolved, and sizes the workers' accepts
// logs for the longest phase. The iteration loop then issues steps with
// no per-phase setup work.
func (ex *executor) planLevel(sizes []uint8) {
	phases := ex.phasesFor(sizes)
	steps := ex.plan.steps[:0]
	longest := 0
	for _, ph := range phases {
		steps = append(steps, dispatchStep{phase: ph, items: len(ph)})
		longest = max(longest, len(ph))
	}
	// One worker may run a whole phase and accept every swap of it.
	for w := range ex.shards {
		if sh := &ex.shards[w]; cap(sh.accepts) < longest {
			sh.accepts = make([]int32, 0, longest)
		}
	}
	ex.plan.steps = steps
	ex.plan.load = dispatchStep{items: len(sizes)}
	ex.retune()
}

// retune refreshes every planned step's grab and fan-out from the
// current cost estimates. It runs at write-back epoch boundaries —
// where one division per phase is noise — so the per-phase hand-off in
// the iteration loop does none.
func (ex *executor) retune() {
	for i := range ex.plan.steps {
		ex.tuneStep(&ex.plan.steps[i], jobUpdatePhase)
	}
	ex.tuneStep(&ex.plan.load, jobLoadWindows)
}

// tuneStep sizes one dispatch: the grab from the measured per-item
// cost, and the fan-out capped at the number of grabs actually
// available beyond the dispatcher's own first one — waking a worker a
// phase has no grab for buys nothing and costs a park/unpark round
// trip.
func (ex *executor) tuneStep(st *dispatchStep, kind jobKind) {
	st.grab = ex.grabFor(kind)
	st.fan = 0
	if ex.workers > 1 && int64(st.items) > st.grab {
		f := (st.items+int(st.grab)-1)/int(st.grab) - 1
		if f > ex.workers-1 {
			f = ex.workers - 1
		}
		st.fan = int32(f)
	}
}

// runStep executes one planned dispatch and blocks until every item is
// processed, then unsettles the neighbours of the clusters it accepted
// swaps for. Steps with no fan-out run entirely on the dispatching
// goroutine: no atomics beyond the cursor, no barrier traffic. A panic
// that a background worker recovered during the dispatch is re-raised
// here, on the solve goroutine, once every engaged worker is done.
func (ex *executor) runStep(job *poolJob, st *dispatchStep) {
	job.grab = st.grab
	job.cursor.Store(0)
	if st.fan == 0 {
		ex.run(0, job)
		ex.unsettle(job.state)
		return
	}
	ex.pending.Store(st.fan)
	ex.publish(st.fan)
	for i := int32(0); i < st.fan; i++ {
		ex.parks[i].wakeIfParked()
	}
	ex.run(0, job)
	ex.awaitPending()
	ex.unsettle(job.state)
	if p := ex.panicked.Swap(nil); p != nil {
		panic(p)
	}
}

// runJob processes chunks of the job until the cursor is exhausted,
// accumulating counters into worker w's shard. Worker 0 times its
// first chunk to keep the per-item cost estimate current.
func (ex *executor) runJob(w int, job *poolJob) {
	sh := &ex.shards[w]
	grab := job.grab
	if grab < 1 {
		grab = 1
	}
	measure := w == 0
	var n int64
	switch job.kind {
	case jobUpdatePhase:
		n = int64(len(job.phase))
	case jobLoadWindows:
		n = int64(len(job.state.nodes))
	}
	for {
		end := job.cursor.Add(grab)
		start := end - grab
		if start >= n {
			return
		}
		if end > n {
			end = n
		}
		var t0 time.Time
		if measure {
			t0 = time.Now()
		}
		switch job.kind {
		case jobUpdatePhase:
			before := len(sh.accepts)
			sh.accepts = updatePhase(job.state, job.phase[start:end], job.key, job.opt, job.epoch, job.temp, sh.accepts)
			sh.accepted += int64(len(sh.accepts) - before)
		case jobLoadWindows:
			for ci := start; ci < end; ci++ {
				loadWindow(job.state, int(ci))
			}
		}
		if measure {
			measure = false
			ex.observeCost(job.kind, time.Since(t0), end-start)
		}
	}
}

// mergeShards folds every worker's accept counter into stats and
// resets it — called once per level, not once per phase.
func (ex *executor) mergeShards(stats *Stats) {
	for i := range ex.shards {
		sh := &ex.shards[i]
		stats.Accepted += sh.accepted
		sh.accepted = 0
	}
}

// unsettle clears the settled flags of both neighbours of every cluster
// the dispatch just accepted a swap for, and truncates the logs. An
// accept changes the boundary element its neighbours' swaps are keyed
// on, but the neighbours belong to other chromatic phases, which read
// their flags only after this dispatch, so deferring the clear to here
// is exact, and no worker writes a flag another worker may read.
func (ex *executor) unsettle(state *levelState) {
	for w := range ex.shards {
		sh := &ex.shards[w]
		for _, ci := range sh.accepts {
			nc := len(state.orders)
			state.chip.Unsettle((int(ci) + nc - 1) % nc)
			state.chip.Unsettle((int(ci) + 1) % nc)
		}
		sh.accepts = sh.accepts[:0]
	}
}

// phasesFor returns the chromatic phases of a level whose clusters
// have the given sizes, reusing the executor's backing storage across
// levels: odd, then even, with a third phase for the final cluster when
// the count is odd (it would otherwise be adjacent to cluster 0 in the
// even phase). Clusters of fewer than two children are left out — they
// never propose, and their randomness is a counter hash keyed on the
// cluster index, so skipping them consumes nothing — and empty phases
// are never emitted.
func (ex *executor) phasesFor(sizes []uint8) [][]int {
	nc := len(sizes)
	if cap(ex.phaseIdx) < nc {
		ex.phaseIdx = make([]int, 0, nc)
	}
	// Odd, even, then the odd-count extra, laid out contiguously in one
	// backing array.
	idx := ex.phaseIdx[:0]
	last := nc - nc%2
	add := func(ci int) {
		if sizes[ci] >= 2 {
			idx = append(idx, ci)
		}
	}
	for ci := 1; ci < last; ci += 2 {
		add(ci)
	}
	oddEnd := len(idx)
	for ci := 0; ci < last; ci += 2 {
		add(ci)
	}
	evenEnd := len(idx)
	if last < nc {
		add(nc - 1)
	}
	ex.phaseIdx = idx
	phases := ex.phases[:0]
	for _, ph := range [3][]int{idx[:oddEnd], idx[oddEnd:evenEnd], idx[evenEnd:]} {
		if len(ph) > 0 {
			phases = append(phases, ph)
		}
	}
	ex.phases = phases
	return phases
}

// levelObjective evaluates the level's true (unquantized, noise-free)
// objective: the closed path over all children in their current order,
// measured between centroids. The point buffer persists on the executor
// so trace recording does not allocate inside the iteration loop.
func (ex *executor) levelObjective(state *levelState) float64 {
	pts := ex.objPts[:0]
	for ci, n := range state.nodes {
		p := int(state.sizes[ci])
		for s := 0; s < p; s++ {
			pts = append(pts, n.Children[state.orders[ci].Elem(p, s)].Centroid)
		}
	}
	ex.objPts = pts
	var sum float64
	for i := range pts {
		sum += geom.Exact.Dist(pts[i], pts[(i+1)%len(pts)])
	}
	return sum
}
