package faultinject

import (
	"context"
	"errors"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cimsa"
	"cimsa/internal/fairsched"
	"cimsa/internal/problem"
	"cimsa/internal/problem/tspprob"
	"cimsa/internal/serve"
)

// fixedSchedule builds a hand-written schedule (dimensions chosen, ops
// explicit) for the targeted scenario tests below.
func fixedSchedule(seed uint64, slots, depth, replay int, ops []Op) Schedule {
	return Schedule{Seed: seed, Slots: slots, Depth: depth, Replay: replay, Ops: ops}
}

// Cancel storms racing submission: fan-outs of submit-then-cancel on a
// single slot, interleaved with ordinary traffic. Pre-fix, the Submit
// gauge increment landed after the queue send, so a storm like this
// could drive the queued gauge negative; the harness sampler and the
// quiesce conservation checks both watch for it.
func TestCancelStormRacingSubmit(t *testing.T) {
	ops := []Op{
		{Kind: OpStorm, Arg: 3},
		{Kind: OpQuiesce},
		{Kind: OpSubmit},
		{Kind: OpStorm, Arg: 1},
		{Kind: OpProgress, Arg: 0},
		{Kind: OpStorm, Arg: 2},
		{Kind: OpQuiesce},
		{Kind: OpComplete, Arg: 0},
		{Kind: OpStorm, Arg: 3},
		{Kind: OpQuiesce},
	}
	RunSchedule(t, fixedSchedule(101, 1, 3, 8, ops))
}

// Queue-full bursts: every slot is pinned by a blocked solve, the queue
// is slammed past capacity, and the rejected counter must account for
// exactly the overflow while accepted jobs all reach terminal states.
func TestQueueFullBurstAccounting(t *testing.T) {
	ops := []Op{
		{Kind: OpSubmit}, // pins the slot
		{Kind: OpBurst},
		{Kind: OpQuiesce},
		{Kind: OpBurst}, // burst again on a saturated system
		{Kind: OpCancel, Arg: 2},
		{Kind: OpQuiesce},
	}
	RunSchedule(t, fixedSchedule(102, 1, 2, 8, ops))
}

// Slow and abandoning subscribers must never stall a solve or corrupt
// the streams other subscribers see.
func TestSlowAndAbandoningSubscribers(t *testing.T) {
	ops := []Op{
		{Kind: OpSubmit},
		{Kind: OpSlow, Arg: 0},
		{Kind: OpAbandon, Arg: 0},
		{Kind: OpSubscribe, Arg: 0},
		{Kind: OpProgress, Arg: 0},
		{Kind: OpProgress, Arg: 0},
		{Kind: OpAbandon, Arg: 0},
		{Kind: OpProgress, Arg: 0},
		{Kind: OpComplete, Arg: 0},
		{Kind: OpQuiesce},
		{Kind: OpSubmit},
		{Kind: OpSlow, Arg: 1},
		{Kind: OpProgress, Arg: 0},
		{Kind: OpFail, Arg: 0},
		{Kind: OpQuiesce},
	}
	RunSchedule(t, fixedSchedule(103, 1, 4, 4, ops))
}

// Clock jumps across janitor sweeps: terminal jobs (and only terminal
// jobs) are reaped once the scripted clock passes their TTL, and the
// books still balance afterwards — sweeps remove jobs from the index,
// never from the counters.
func TestClockJumpJanitorSweeps(t *testing.T) {
	ops := []Op{
		{Kind: OpClockSweep}, // sweep of an empty scheduler removes nothing
		{Kind: OpSubmit},
		{Kind: OpSubmit},
		{Kind: OpComplete, Arg: 0},
		{Kind: OpQuiesce},
		{Kind: OpClockSweep}, // reaps the finished job, spares the running one
		{Kind: OpQuiesce},
		{Kind: OpFail, Arg: 0},
		{Kind: OpSubmit},
		{Kind: OpCancel, Arg: 2},
		{Kind: OpQuiesce},
		{Kind: OpClockSweep}, // reaps failed + canceled together
		{Kind: OpQuiesce},
	}
	RunSchedule(t, fixedSchedule(104, 1, 4, 8, ops))
}

// Solver errors at chosen epochs: a job that progresses and then fails
// mid-run must land in failed (not canceled, not stuck), with the error
// on both Status and the terminal stream event.
func TestSolverErrorAtChosenEpoch(t *testing.T) {
	ops := []Op{
		{Kind: OpSubmit},
		{Kind: OpSubscribe, Arg: 0},
		{Kind: OpProgress, Arg: 0},
		{Kind: OpProgress, Arg: 0},
		{Kind: OpProgress, Arg: 0},
		{Kind: OpFail, Arg: 0},
		{Kind: OpQuiesce},
	}
	sc := fixedSchedule(105, 1, 2, 8, ops)
	h := NewHarness(t, sc)
	h.drive(sc.Ops, nil, h.step)
	tj := h.jobs[0]
	st := tj.job.Status()
	if st.State != serve.StateFailed {
		t.Fatalf("injected failure left state %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "scripted solver failure") {
		t.Fatalf("status error %q does not carry the injected cause", st.Error)
	}
	h.Finish()
}

// Shutdown while draining, both ways: graceful (queued work completes
// through real solves) and abrupt (a lapsed deadline cancels the
// stragglers) — conservation and stream contracts hold in both.
func TestShutdownWhileDraining(t *testing.T) {
	t.Run("graceful", func(t *testing.T) {
		sc := fixedSchedule(106, 2, 6, 8, nil)
		h := NewHarness(t, sc)
		for i := 0; i < 6; i++ {
			h.submit(i)
		}
		h.ShutdownDrain(true)
		for _, tj := range h.jobs {
			if st := tj.job.Status().State; st != serve.StateDone {
				h.fatalf("graceful drain left %s in state %s, want done", tj.name, st)
			}
		}
		h.Finish()
	})
	t.Run("abrupt", func(t *testing.T) {
		sc := fixedSchedule(107, 1, 6, 8, nil)
		h := NewHarness(t, sc)
		for i := 0; i < 5; i++ {
			h.submit(i)
		}
		h.syncStarted() // let the slot fill so real running work is aborted
		h.ShutdownDrain(false)
		for _, tj := range h.jobs {
			if st := tj.job.Status().State; st != serve.StateCanceled {
				h.fatalf("abrupt shutdown left %s in state %s, want canceled", tj.name, st)
			}
		}
		h.Finish()
	})
}

// Mixed problem types through one scheduler: scripted submissions
// cycle tsp/maxcut/ising, and at every quiesce point the per-problem
// labeled counters must balance exactly against the harness's ground
// truth for that type alone — the same conservation identity the
// unlabeled totals obey, re-checked per label and as a partition of
// the global submitted count.
func TestMixedProblemGaugeConservation(t *testing.T) {
	ops := []Op{
		{Kind: OpSubmit}, {Kind: OpSubmit}, {Kind: OpSubmit}, // one of each type
		{Kind: OpProgress, Arg: 0},
		{Kind: OpComplete, Arg: 0},
		{Kind: OpQuiesce},
		{Kind: OpSubmit}, {Kind: OpSubmit}, {Kind: OpSubmit},
		{Kind: OpCancel, Arg: 4},
		{Kind: OpFail, Arg: 0},
		{Kind: OpQuiesce},
		{Kind: OpStorm, Arg: 3},
		{Kind: OpQuiesce},
	}
	sc := fixedSchedule(108, 2, 8, 8, ops)
	h := NewHarness(t, sc)
	h.drive(sc.Ops, nil, h.step)
	seen := map[string]bool{}
	for _, tj := range h.jobs {
		seen[tj.problem] = true
	}
	for _, want := range []string{"tsp", "maxcut", "ising"} {
		if !seen[want] {
			t.Fatalf("schedule admitted no %s job; traffic mix broken", want)
		}
	}
	h.Finish()
}

// Tenant storms against quotas: concurrent multi-tenant submissions
// race their own cancels while per-tenant queue/running caps reject
// some of them, and a duplicate rides the result cache mid-churn. At
// every quiesce point conservation must hold per tenant as well as per
// problem and globally — quotas partition the rejections, lanes
// partition the traffic.
func TestTenantQuotaStormConservation(t *testing.T) {
	sc := Schedule{
		Seed: 201, Slots: 2, Depth: 6, Replay: 8,
		Tenants: []string{"acme", "batch", ""},
		Policies: map[string]fairsched.Policy{
			"acme":  {Weight: 3, MaxQueued: 2},
			"batch": {Weight: 1, MaxRunning: 1},
		},
		CacheEntries: 256,
		Ops: []Op{
			{Kind: OpStorm, Arg: 3},
			{Kind: OpQuiesce},
			{Kind: OpSubmit, Arg: 0}, {Kind: OpSubmit, Arg: 1}, {Kind: OpSubmit, Arg: 2},
			{Kind: OpBurst},
			{Kind: OpQuiesce},
			{Kind: OpComplete, Arg: 0},
			{Kind: OpDupSubmit, Arg: 0},
			{Kind: OpQuiesce},
			{Kind: OpStorm, Arg: 5},
			{Kind: OpQuiesce},
			{Kind: OpComplete, Arg: 0},
			{Kind: OpQuiesce},
		},
	}
	h := NewHarness(t, sc)
	h.drive(sc.Ops, nil, h.step)
	if h.rejected == 0 {
		t.Fatal("quota schedule produced no rejections; caps not exercised")
	}
	h.Finish()
}

// A duplicate of a completed job must settle straight from the cache:
// Done, marked Cached, result pointer-identical to the original's, one
// hit per duplicate — and the solver never sees a second run.
func TestCachedDuplicateSettles(t *testing.T) {
	sc := Schedule{
		Seed: 202, Slots: 1, Depth: 4, Replay: 8, CacheEntries: 64,
		Ops: []Op{
			{Kind: OpSubmit},
			{Kind: OpProgress, Arg: 0},
			{Kind: OpComplete, Arg: 0},
			{Kind: OpQuiesce},
			{Kind: OpDupSubmit, Arg: 0},
			{Kind: OpQuiesce},
			{Kind: OpDupSubmit, Arg: 1},
			{Kind: OpQuiesce},
		},
	}
	h := NewHarness(t, sc)
	h.drive(sc.Ops, nil, h.step)
	if len(h.dups) != 2 {
		t.Fatalf("expected 2 tracked duplicates, have %d", len(h.dups))
	}
	for _, d := range h.dups {
		st := d.job.Status()
		if st.State != serve.StateDone || !st.Cached {
			t.Fatalf("duplicate state %s cached=%v, want done from cache", st.State, st.Cached)
		}
		if d.job.Result() != d.dupOf.job.Result() {
			t.Fatal("duplicate result is not the cached original")
		}
	}
	if hits := h.sched.Metrics.CacheHits.Load(); hits != 2 {
		t.Fatalf("cache hits = %d, want 2", hits)
	}
	h.Finish()
}

// seedMatrix runs one parallel subtest per seed: defaults, or the
// comma-separated list in the env variable. A failure prints its seed,
// and rerunning with env=<seed> replays the identical schedule.
func seedMatrix(t *testing.T, env string, defaults []uint64, run func(*testing.T, uint64)) {
	seeds := defaults
	if list := os.Getenv(env); list != "" {
		seeds = nil
		for _, f := range strings.Split(list, ",") {
			s, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				t.Fatalf("%s entry %q: %v", env, f, err)
			}
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		t.Run(strconv.FormatUint(seed, 10), func(t *testing.T) {
			t.Parallel()
			run(t, seed)
		})
	}
}

// TestSeededScheduleMatrix runs generated schedules for a fixed seed
// batch; CI and local runs can extend the matrix with a comma-separated
// FAULTINJECT_SEEDS.
func TestSeededScheduleMatrix(t *testing.T) {
	seedMatrix(t, "FAULTINJECT_SEEDS", []uint64{1, 2, 3, 4, 5, 6, 7, 8}, func(t *testing.T, seed uint64) {
		RunSchedule(t, GenSchedule(seed))
	})
}

// TestTenantSeededMatrix runs generated multi-tenant, cache-enabled
// schedules; CI extends the matrix with a comma-separated
// FAULTINJECT_TENANT_SEEDS.
func TestTenantSeededMatrix(t *testing.T) {
	seedMatrix(t, "FAULTINJECT_TENANT_SEEDS", []uint64{1, 2, 3, 4, 5, 6}, func(t *testing.T, seed uint64) {
		RunSchedule(t, GenTenantSchedule(seed))
	})
}

// Regression for the queued-gauge race, sharp form: the solver itself
// probes the queued gauge the moment its job enters a slot. With a
// sequential submitter the gauge hovers at zero, so the pre-fix
// ordering (Submit incremented Queued after the queue send) shows up as
// a -1 reading whenever the worker's pop-and-decrement beats the
// submitter's increment — which it demonstrably does within a few
// thousand iterations. Post-fix the increment precedes the send, so a
// job can never observe the system un-account for itself.
func TestQueuedGaugeRaceProbe(t *testing.T) {
	// Pre-fix this trips well inside 50k iterations on an unloaded
	// machine. Run up to 150k but time-box the hammer (the race detector
	// slows each round trip ~100x) with a floor so a fast pass still
	// does meaningful work.
	const maxIters, minIters = 150000, 20000
	budget := time.Now().Add(4 * time.Second)
	var minQueued atomic.Int64
	var sched *serve.Scheduler
	probe := func(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
		if q := sched.Metrics.Queued.Load(); q < minQueued.Load() {
			minQueued.Store(q)
		}
		return &problem.Result{Problem: task.Problem(), Instance: task.Label(), N: task.Size(), Objective: 1}, nil
	}
	sched = serve.NewScheduler(serve.Config{
		MaxConcurrent: 2, QueueDepth: 4, Solve: probe, SweepEvery: time.Hour,
	})
	in := cimsa.GenerateInstance("probe", 10, 1)
	for i := 0; i < maxIters; i++ {
		if i >= minIters && !time.Now().Before(budget) {
			break
		}
		job, err := sched.Submit(serve.Spec{Task: tspprob.New(in, cimsa.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("probe job %d never finished", i)
		}
		if q := minQueued.Load(); q < 0 {
			t.Fatalf("queued gauge observed at %d by the running solver (iteration %d) — submit/worker accounting race", q, i)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sched.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// Regression for the queued-gauge race, broad form: concurrent
// submitters churning instant solves while a sampler watches the gauge,
// then a full-drain accounting check.
func TestQueuedGaugeNeverNegativeUnderChurn(t *testing.T) {
	instant := func(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
		return &problem.Result{Problem: task.Problem(), Instance: task.Label(), N: task.Size(), Objective: 1}, nil
	}
	sched := serve.NewScheduler(serve.Config{
		MaxConcurrent: 4, QueueDepth: 64, Solve: instant, SweepEvery: time.Hour,
	})
	sampler := sampleGauges(&sched.Metrics)

	const workers, perWorker = 8, 300
	var wg sync.WaitGroup
	var accepted atomic.Int64
	jobs := make(chan *serve.Job, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				job, err := sched.Submit(serve.Spec{Task: tspprob.New(cimsa.GenerateInstance("churn", 10, uint64(w+1)), cimsa.Options{})})
				if errors.Is(err, serve.ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				accepted.Add(1)
				jobs <- job
			}
		}(w)
	}
	wg.Wait()
	close(jobs)
	for job := range jobs {
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("churn job never finished")
		}
	}
	if q, _ := sampler.halt(); q < 0 {
		t.Fatalf("queued gauge observed at %d — submit/worker accounting race", q)
	}
	if got := sched.Metrics.Done.Load(); got != accepted.Load() {
		t.Fatalf("done counter %d != accepted submissions %d", got, accepted.Load())
	}
	if q, r := sched.Metrics.Queued.Load(), sched.Metrics.Running.Load(); q != 0 || r != 0 {
		t.Fatalf("gauges not drained: queued %d running %d", q, r)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sched.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
