// Package faultinject is the service stack's deterministic chaos and
// invariant harness. The paper's claim is that annealing on noisy SRAM
// still converges; this package proves the complementary software
// claim — that under adversarial scheduling (cancel storms racing
// submission, queue-full bursts, abandoned and stalled SSE subscribers,
// clock jumps across janitor sweeps, solver failures at scripted
// epochs, shutdown mid-drain) the *service* faults are zero: gauges
// conserve, event streams stay contiguous and single-terminal, and
// every job reaches exactly one coherent terminal state.
//
// Every fault schedule is derived from a single seed (Schedule's op
// sequence, the scheduler's dimensions, the storm fan-outs), so a
// failing run replays exactly: rerun with the seed printed in the
// failure message. The harness drives the real serve.Scheduler through
// its exported seams (Config.Solve, Config.Now, Scheduler.Sweep) — no
// scheduler internals are touched, so what the harness validates is
// what production runs.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cimsa"
	"cimsa/internal/fairsched"
	"cimsa/internal/problem"
	"cimsa/internal/problem/isingprob"
	"cimsa/internal/problem/maxcutprob"
	"cimsa/internal/problem/tspprob"
	"cimsa/internal/serve"
)

// Clock is the harness's deterministic time source, injected through
// serve.Config.Now so TTL expiry is driven by scripted jumps, not wall
// time.
type Clock struct {
	mu sync.Mutex
	t  time.Time
}

// NewClock starts at a fixed, arbitrary epoch.
func NewClock() *Clock { return &Clock{t: time.Unix(100000, 0)} }

// Now returns the current scripted time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance jumps the clock forward.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// command scripts one step of a scripted solve.
type command int

const (
	cmdProgress command = iota // emit one progress event
	cmdSucceed                 // return a report
	cmdFail                    // return ErrInjected
)

// ErrInjected is the scripted solver's failure, standing in for a
// solver error at a chosen epoch.
var ErrInjected = errors.New("faultinject: scripted solver failure")

// startedJob announces a solve entering its slot, carrying the command
// channel the harness uses to script it.
type startedJob struct {
	name string
	cmds chan command
}

// Solver is a scriptable serve.SolveFunc: each solve announces itself
// on started and then blocks, consuming commands until told to finish
// (or until its context is cancelled — always obeyed, like the real
// solver's phase-boundary checks).
type Solver struct {
	started chan startedJob
}

// NewSolver returns a scriptable solver. The started buffer is sized so
// the solver never blocks the worker goroutines on harness bookkeeping.
func NewSolver() *Solver {
	return &Solver{started: make(chan startedJob, 4096)}
}

// Solve implements serve.SolveFunc.
func (sv *Solver) Solve(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
	cmds := make(chan command, 1024)
	sv.started <- startedJob{name: task.Label(), cmds: cmds}
	iter := 0
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case c := <-cmds:
			switch c {
			case cmdProgress:
				iter += 50
				if run.Progress != nil {
					run.Progress(problem.Progress{
						Levels: 1, Iters: 1 << 30, Iter: iter, Clusters: 3,
					})
				}
			case cmdSucceed:
				return &problem.Result{
					Problem:    task.Problem(),
					Instance:   task.Label(),
					N:          task.Size(),
					Objective:  float64(iter + 1),
					Iterations: iter,
				}, nil
			case cmdFail:
				return nil, ErrInjected
			}
		}
	}
}

// makeTask builds the kind'th scripted task, cycling the registered
// problem types so a single schedule drives mixed traffic through one
// scheduler and the per-problem accounting is exercised alongside the
// global gauges. The instances are tiny: the scripted solver never
// anneals them, it only needs Label/Size/Validate to hold.
func makeTask(name string, kind int) problem.Task {
	switch kind % 3 {
	case 1:
		t, err := maxcutprob.TaskFromSpec(&maxcutprob.Spec{
			Name:     name,
			Generate: &maxcutprob.GenerateSpec{N: 8, Density: 0.5, Seed: 1},
			Sweeps:   4,
			Seed:     1,
		}, problem.Limits{})
		if err != nil {
			panic(err) // fixed, valid spec; cannot fail
		}
		return t
	case 2:
		t, err := isingprob.TaskFromSpec(&isingprob.Spec{
			Name:     name,
			Generate: &isingprob.GenerateSpec{N: 8, Density: 0.5, Seed: 1},
		}, problem.Limits{})
		if err != nil {
			panic(err) // fixed, valid spec; cannot fail
		}
		return t
	default:
		return tspprob.New(cimsa.GenerateInstance(name, 10, 1), cimsa.Options{})
	}
}

// jobPhase is the harness's knowledge of a job's lifecycle. It lags the
// scheduler's own state only in bounded, awaitable ways (a started
// signal not yet consumed, a Done not yet observed).
type jobPhase int

const (
	phaseQueued    jobPhase = iota // admitted; start signal not yet seen
	phaseRunning                   // start signal consumed
	phaseFinishing                 // terminal command sent or cancel issued
	phaseTerminal                  // Done() observed
)

// trackedJob pairs a scheduler job with the harness's bookkeeping.
type trackedJob struct {
	name    string
	problem string
	tenant  string // canonical lane (serve.Job.Tenant)
	kind    int    // makeTask kind, so a dup rebuilds the identical task
	job     *serve.Job
	cmds    chan command // nil until the start signal is consumed
	phase   jobPhase
	// expectCached marks a duplicate submission of an already-completed
	// job: it must settle from the result cache, producing no solver
	// start signal, so the harness waits on Done instead.
	expectCached bool
	dupOf        *trackedJob // the completed job this duplicate repeats
	canceled     bool        // a cancel was issued at some point
	swept        bool        // removed from the scheduler by a TTL sweep
}

// slowSub is a deliberately stalled subscriber: it never reads until
// the harness finishes, exercising the drop-don't-stall publish path.
type slowSub struct {
	job *trackedJob
	ch  chan serve.Event
}

// Harness owns one scheduler under fault injection.
type Harness struct {
	opLog
	sched  *serve.Scheduler
	solver *Solver
	clock  *Clock
	cfg    serve.Config
	seed   uint64

	jobs     []*trackedJob
	byName   map[string]*trackedJob
	rejected int
	nextID   int

	// Tenant-schedule state: the identity pool scripted submissions draw
	// from ("" = no header → default lane), per-tenant rejection ground
	// truth, and the duplicate submissions that must settle from the
	// result cache.
	tenantPool     []string
	tenantRejected map[string]int
	cacheOn        bool
	dups           []*trackedJob

	auditors []*StreamAuditor
	slows    []slowSub
	sampler  *gaugeSampler
}

// ttl is the scripted ResultTTL every harness scheduler uses; clock
// jumps are scaled against it.
const ttl = time.Minute

// NewHarness builds a scheduler sized by the schedule and starts the
// gauge sampler, which continuously asserts the gauges never go
// negative — the exact lie the pre-fix Submit/worker race produced.
func NewHarness(t *testing.T, sc Schedule) *Harness {
	t.Helper()
	clock := NewClock()
	solver := NewSolver()
	cfg := serve.Config{
		MaxConcurrent: sc.Slots,
		QueueDepth:    sc.Depth,
		ReplayBuffer:  sc.Replay,
		ResultTTL:     ttl,
		SweepEvery:    time.Hour, // sweeps are scripted via Scheduler.Sweep
		Solve:         solver.Solve,
		Now:           clock.Now,
		Tenants:       fairsched.Config{Tenants: sc.Policies, Now: clock.Now},
		CacheEntries:  sc.CacheEntries,
	}
	sched := serve.NewScheduler(cfg)
	return &Harness{
		opLog:  opLog{t: t, prefix: fmt.Sprintf("[seed %d]", sc.Seed)},
		solver: solver, clock: clock, cfg: cfg, seed: sc.Seed,
		sched:          sched,
		byName:         map[string]*trackedJob{},
		tenantPool:     sc.Tenants,
		tenantRejected: map[string]int{},
		cacheOn:        sc.CacheEntries > 0,
		sampler:        sampleGauges(&sched.Metrics),
	}
}

// gaugeSampler polls a scheduler's live gauges as fast as it can until
// halted; any negative reading is a conservation violation regardless
// of what the run was doing at the time.
type gaugeSampler struct {
	stop, done chan struct{}
	minQueued  atomic.Int64
	minRunning atomic.Int64
}

func sampleGauges(m *serve.Metrics) *gaugeSampler {
	s := &gaugeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for {
			select {
			case <-s.stop:
				return
			default:
			}
			if q := m.Queued.Load(); q < s.minQueued.Load() {
				s.minQueued.Store(q)
			}
			if r := m.Running.Load(); r < s.minRunning.Load() {
				s.minRunning.Store(r)
			}
			// Sample densely but don't monopolize a core: negative-gauge
			// windows are produced continuously under churn, so a ~20µs
			// cadence still takes tens of thousands of samples per run.
			time.Sleep(20 * time.Microsecond)
		}
	}()
	return s
}

// halt stops the sampler (safe to call more than once) and returns the
// most negative Queued and Running readings, or 0.
func (s *gaugeSampler) halt() (queued, running int64) {
	select {
	case <-s.done:
	default:
		close(s.stop)
		<-s.done
	}
	return s.minQueued.Load(), s.minRunning.Load()
}

// pickTenant maps a schedule arg onto the tenant pool; with no pool
// every submission rides the default lane (no X-Tenant header).
func (h *Harness) pickTenant(arg int) string {
	if len(h.tenantPool) == 0 {
		return ""
	}
	return h.tenantPool[arg%len(h.tenantPool)]
}

// canonicalTenant mirrors the scheduler's lane canonicalization for
// rejection accounting (a rejected submit has no serve.Job to ask).
func canonicalTenant(name string) string {
	if name == "" {
		return fairsched.DefaultTenant
	}
	return name
}

// policyFor returns the effective (defaulted) policy of a lane.
func (h *Harness) policyFor(tenant string) fairsched.Policy {
	return h.cfg.Tenants.PolicyFor(tenant)
}

// noteRejected records one backpressure rejection in both the global
// and per-tenant ground truth. Every rejection class — global queue
// full, tenant queue quota, rate limit — lands in the same counters
// the scheduler's Metrics.Rejected aggregates.
func (h *Harness) noteRejected(tenant string) {
	h.rejected++
	h.tenantRejected[canonicalTenant(tenant)]++
}

// isRejection reports whether a submit error is expected backpressure
// (as opposed to a harness bug).
func isRejection(err error) bool {
	return errors.Is(err, serve.ErrQueueFull) ||
		errors.Is(err, serve.ErrTenantQueueFull) ||
		errors.Is(err, serve.ErrRateLimited)
}

// submit admits one scripted job (or records backpressure). arg seeds
// the tenant choice.
func (h *Harness) submit(arg int) *trackedJob {
	name := fmt.Sprintf("fi-%04d", h.nextID)
	kind := h.nextID
	task := makeTask(name, kind)
	h.nextID++
	tenant := h.pickTenant(arg)
	job, err := h.sched.Submit(serve.Spec{Tenant: tenant, Task: task})
	switch {
	case err == nil:
		tj := &trackedJob{name: name, problem: task.Problem(), tenant: job.Tenant, kind: kind, job: job, phase: phaseQueued}
		h.jobs = append(h.jobs, tj)
		h.byName[name] = tj
		h.logf("submit %s (%s, tenant %s) -> %s", name, task.Problem(), job.Tenant, job.ID)
		return tj
	case isRejection(err):
		h.noteRejected(tenant)
		h.logf("submit %s (tenant %s) -> rejected: %v", name, canonicalTenant(tenant), err)
		return nil
	default:
		h.fatalf("submit %s: unexpected error %v", name, err)
		return nil
	}
}

// dupSubmit re-submits the identical task of an already-completed job.
// With the cache on, the duplicate must settle as a cache hit: Done,
// Cached, result pointer-identical to the original's — and it never
// produces a solver start signal. With no eligible original (or cache
// off) it degrades to a fresh submission.
func (h *Harness) dupSubmit(arg int) {
	var elig []*trackedJob
	if h.cacheOn {
		for _, tj := range h.jobs {
			if tj.phase == phaseTerminal && tj.job.Status().State == serve.StateDone {
				elig = append(elig, tj)
			}
		}
	}
	if len(elig) == 0 {
		h.submit(arg)
		return
	}
	orig := elig[arg%len(elig)]
	task := makeTask(orig.name, orig.kind)
	tenant := h.pickTenant(arg)
	job, err := h.sched.Submit(serve.Spec{Tenant: tenant, Task: task})
	switch {
	case err == nil:
		tj := &trackedJob{
			name: orig.name, problem: task.Problem(), tenant: job.Tenant,
			kind: orig.kind, job: job, phase: phaseQueued,
			expectCached: true, dupOf: orig,
		}
		// Deliberately NOT in byName: a duplicate must never announce a
		// solver start, so noteStarted must keep resolving the original.
		h.jobs = append(h.jobs, tj)
		h.dups = append(h.dups, tj)
		h.logf("dup-submit %s (tenant %s) -> %s", orig.name, job.Tenant, job.ID)
	case isRejection(err):
		h.noteRejected(tenant)
		h.logf("dup-submit %s (tenant %s) -> rejected: %v", orig.name, canonicalTenant(tenant), err)
	default:
		h.fatalf("dup-submit %s: unexpected error %v", orig.name, err)
	}
}

// settleCached marks duplicates whose cached completion has landed.
func (h *Harness) settleCached() {
	for _, tj := range h.jobs {
		if tj.expectCached && tj.phase == phaseQueued {
			select {
			case <-tj.job.Done():
				tj.phase = phaseTerminal
			default:
			}
		}
	}
}

// promotable reports whether some queued job (only duplicates, with
// dupsOnly) can legally take a slot: a slot is free AND the job's lane
// is under its MaxRunning cap. With per-tenant caps, "queued>0 &&
// running<slots" is not enough — every queued job may belong to a
// capped lane. A finishing job still holds its slot until its Done
// lands. While a duplicate is promotable its cached completion can
// settle asynchronously, so terminal counts are still in motion.
func (h *Harness) promotable(dupsOnly bool) bool {
	occupied, byTenant := 0, map[string]int{}
	for _, tj := range h.jobs {
		if tj.phase == phaseRunning || tj.phase == phaseFinishing {
			occupied++
			byTenant[tj.tenant]++
		}
	}
	if occupied >= h.cfg.MaxConcurrent {
		return false
	}
	for _, tj := range h.jobs {
		if tj.phase != phaseQueued || (dupsOnly && !tj.expectCached) {
			continue
		}
		if max := h.policyFor(tj.tenant).MaxRunning; max == 0 || byTenant[tj.tenant] < max {
			return true
		}
	}
	return false
}

// settleAllCached waits until no duplicate can settle behind the
// harness's back (used before counting terminal jobs for a sweep).
func (h *Harness) settleAllCached() {
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.syncStarted() // a non-dup promotion may be filling the free slot
		h.settleCached()
		if !h.promotable(true) {
			return
		}
		if time.Now().After(deadline) {
			h.fatalf("cached duplicate never settled")
		}
		time.Sleep(time.Millisecond)
	}
}

// syncStarted consumes pending start signals without blocking,
// promoting queued jobs to running.
func (h *Harness) syncStarted() {
	for {
		select {
		case sj := <-h.solver.started:
			h.noteStarted(sj)
		default:
			return
		}
	}
}

func (h *Harness) noteStarted(sj startedJob) {
	tj, ok := h.byName[sj.name]
	if !ok {
		h.fatalf("solver started unknown job %q", sj.name)
	}
	tj.cmds = sj.cmds
	if tj.phase == phaseQueued {
		tj.phase = phaseRunning
	}
	// A finishing job (cancel raced its promotion) keeps its phase: the
	// pending cancel will unwind the solve via its context.
}

// cancel issues a cancellation; the target may be in any phase
// (cancelling a terminal job must be a harmless no-op).
func (h *Harness) cancel(tj *trackedJob) {
	if !h.sched.Cancel(tj.job.ID) && !tj.swept {
		h.fatalf("cancel %s: scheduler does not know the job", tj.name)
	}
	tj.canceled = true
	if tj.phase == phaseQueued || tj.phase == phaseRunning {
		tj.phase = phaseFinishing
	}
	h.logf("cancel %s", tj.name)
}

// sendCmd scripts a running job one step further. Sends are buffered
// and the solver may already be unwinding from a racing cancel, so this
// never blocks.
func (h *Harness) sendCmd(tj *trackedJob, c command) {
	select {
	case tj.cmds <- c:
	default:
		h.fatalf("command buffer overflow for %s", tj.name)
	}
	if c != cmdProgress && tj.phase == phaseRunning {
		tj.phase = phaseFinishing
	}
}

// running lists jobs the harness believes occupy a slot, in submission
// order (deterministic target selection).
func (h *Harness) running() []*trackedJob {
	var out []*trackedJob
	for _, tj := range h.jobs {
		if tj.phase == phaseRunning {
			out = append(out, tj)
		}
	}
	return out
}

func (h *Harness) countPhases() (queued, running int) {
	for _, tj := range h.jobs {
		switch tj.phase {
		case phaseQueued:
			queued++
		case phaseRunning:
			running++
		}
	}
	return
}

// waitFinishing blocks until every finishing job has reached its
// terminal state.
func (h *Harness) waitFinishing() {
	for _, tj := range h.jobs {
		if tj.phase != phaseFinishing {
			continue
		}
		select {
		case <-tj.job.Done():
			tj.phase = phaseTerminal
		case <-time.After(10 * time.Second):
			h.fatalf("job %s stuck finishing (state %s)", tj.name, tj.job.Status().State)
		}
	}
}

// Quiesce drives the system to a fixed point — no finishing jobs, no
// in-flight queue→slot promotions — and then asserts exact gauge
// conservation and per-job status sanity. Quiescence is the contract
// under which the gauges must balance to the last job: transiently the
// lock-free /metrics reader may see a job between its two gauge
// updates, but at a fixed point every admitted job is in exactly one
// bucket.
func (h *Harness) Quiesce() {
	h.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		h.syncStarted()
		h.waitFinishing()
		h.syncStarted()
		h.settleCached()
		if !h.promotable(false) {
			break
		}
		if time.Now().After(deadline) {
			queued, running := h.countPhases()
			h.fatalf("quiesce did not converge (%d queued, %d running)", queued, running)
		}
		// Progress must be in flight: either a promotion (start signal)
		// or a cached completion (no signal — a duplicate finalizes
		// straight from the cache). Wait briefly for the former, then
		// re-evaluate so the latter is picked up by settleCached.
		select {
		case sj := <-h.solver.started:
			h.noteStarted(sj)
		case <-time.After(50 * time.Millisecond):
		}
	}
	h.checkConservation()
	h.checkStatusSanity()
}

// Finish drains every outstanding job to a terminal state, audits every
// stream, shuts the scheduler down and re-checks conservation — the
// end-of-schedule sweep that turns "no step tripped an invariant" into
// "and the final global state balances too".
func (h *Harness) Finish() {
	h.t.Helper()
	// Drain: command every running job to completion until nothing is
	// queued or running. Alternate success and failure so both terminal
	// accounting paths stay exercised.
	for pass := 0; ; pass++ {
		h.Quiesce()
		queued, running := h.countPhases()
		if queued == 0 && running == 0 {
			break
		}
		if running == 0 {
			h.fatalf("%d jobs queued with no runner and no free slot progression", queued)
		}
		for i, tj := range h.running() {
			if (pass+i)%3 == 2 {
				h.sendCmd(tj, cmdFail)
			} else {
				h.sendCmd(tj, cmdSucceed)
			}
		}
		if pass > 10000 {
			h.fatalf("drain did not converge")
		}
	}

	h.checkDups()

	// Every tracked job must now pass the post-terminal stream audit.
	for _, tj := range h.jobs {
		AuditTerminalStream(h.t, h.seed, tj.job)
	}
	// Live auditors must have seen clean streams.
	for _, a := range h.auditors {
		a.Check(h.t, h.seed)
	}
	// Slow subscribers: drain what their buffers held; order must still
	// be strictly increasing even though events were dropped.
	for _, s := range h.slows {
		last := 0
		for {
			ev, ok := <-s.ch
			if !ok {
				break
			}
			if ev.Seq <= last {
				h.fatalf("slow subscriber on %s saw seq %d after %d", s.job.name, ev.Seq, last)
			}
			last = ev.Seq
		}
	}

	// Shutdown on an idle scheduler must drain cleanly and then refuse
	// new work without touching the rejected counter.
	rejectedBefore := h.sched.Metrics.Rejected.Load()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.sched.Shutdown(ctx); err != nil {
		h.fatalf("idle shutdown returned %v", err)
	}
	if _, err := h.sched.Submit(serve.Spec{Task: tspprob.New(cimsa.GenerateInstance("late", 10, 1), cimsa.Options{})}); !errors.Is(err, serve.ErrShuttingDown) {
		h.fatalf("post-shutdown submit returned %v, want ErrShuttingDown", err)
	}
	if got := h.sched.Metrics.Rejected.Load(); got != rejectedBefore {
		h.fatalf("shutdown refusal moved the rejected counter %d -> %d", rejectedBefore, got)
	}
	h.checkConservation()
	h.StopSampler()
}

// checkDups asserts every duplicate that completed did so from the
// cache: Cached status, result pointer-identical to the original's
// (bit-identity is free when it is the same allocation), and the hit
// counter bracketed by what the harness observed. A duplicate canceled
// before a worker popped it legitimately never hits.
func (h *Harness) checkDups() {
	h.t.Helper()
	doneCached := 0
	for _, tj := range h.dups {
		st := tj.job.Status()
		if st.State != serve.StateDone {
			continue // canceled before settling — allowed
		}
		if !st.Cached {
			h.fatalf("dup of %s done but not marked cache-served", tj.name)
		}
		if tj.job.Result() != tj.dupOf.job.Result() {
			h.fatalf("dup of %s: result diverges from the original's", tj.name)
		}
		doneCached++
	}
	if h.cacheOn {
		hits := h.sched.Metrics.CacheHits.Load()
		if hits < int64(doneCached) || hits > int64(len(h.dups)) {
			h.fatalf("cache hits %d outside [%d done dups, %d dup submits]",
				hits, doneCached, len(h.dups))
		}
	}
}

// ShutdownDrain exercises shutdown racing live work. Graceful: a
// servicer goroutine keeps scripting every job that reaches a slot to
// success while Shutdown drains, so the queue empties through real
// solves. Abrupt: Shutdown gets an already-tight deadline and must
// cancel everything outstanding, still leaving coherent terminal
// states. Either way, after Shutdown returns every tracked job must be
// terminal and the books must balance.
func (h *Harness) ShutdownDrain(graceful bool) {
	h.t.Helper()
	h.syncStarted()
	stop := make(chan struct{})
	served := make(chan startedJob, 4096)
	if graceful {
		// Kick the jobs already occupying slots, then service the rest as
		// the drain promotes them.
		for _, tj := range h.running() {
			h.sendCmd(tj, cmdSucceed)
		}
		go func() {
			for {
				select {
				case sj := <-h.solver.started:
					sj.cmds <- cmdSucceed
					served <- sj
				case <-stop:
					return
				}
			}
		}()
	}
	ctx := context.Background()
	if !graceful {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Millisecond)
		defer cancel()
	}
	err := h.sched.Shutdown(ctx)
	close(stop)
	if graceful && err != nil {
		h.fatalf("graceful shutdown returned %v", err)
	}
	if !graceful && !errors.Is(err, context.DeadlineExceeded) {
		h.fatalf("abrupt shutdown returned %v, want deadline exceeded", err)
	}
	// Merge the start signals the servicer (or the abort path) consumed
	// concurrently, then settle every job: after Shutdown returns, all
	// tracked jobs must be terminal.
	for {
		select {
		case sj := <-served:
			h.noteStarted(sj)
		case sj := <-h.solver.started:
			h.noteStarted(sj)
		default:
			goto settled
		}
	}
settled:
	for _, tj := range h.jobs {
		select {
		case <-tj.job.Done():
			tj.phase = phaseTerminal
		case <-time.After(10 * time.Second):
			h.fatalf("job %s not terminal after shutdown (state %s)", tj.name, tj.job.Status().State)
		}
	}
	h.checkConservation()
	h.checkStatusSanity()
}

// StopSampler halts the gauge sampler and asserts it never saw a
// negative gauge. Safe to call more than once.
func (h *Harness) StopSampler() {
	q, r := h.sampler.halt()
	if q < 0 {
		h.fatalf("queued gauge went negative (reached %d)", q)
	}
	if r < 0 {
		h.fatalf("running gauge went negative (reached %d)", r)
	}
}
