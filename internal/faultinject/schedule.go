package faultinject

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cimsa/internal/fairsched"
	"cimsa/internal/problem"
	"cimsa/internal/rng"
	"cimsa/internal/serve"
)

// OpKind enumerates every fault and probe a schedule can script. Each
// family drives its own range: the service/tenant ops, the
// kill-and-resume ops (R*) and the distributed fleet ops (F*).
type OpKind int

const (
	// OpSubmit admits one job (or records backpressure).
	OpSubmit OpKind = iota
	// OpCancel cancels a scripted-chosen tracked job, whatever its phase.
	OpCancel
	// OpProgress commands a running job to emit one progress event.
	OpProgress
	// OpComplete commands a running job to succeed.
	OpComplete
	// OpFail commands a running job to return an injected solver error.
	OpFail
	// OpBurst submits past queue capacity and requires backpressure.
	OpBurst
	// OpSubscribe attaches a well-behaved auditing subscriber.
	OpSubscribe
	// OpAbandon attaches a subscriber and immediately unsubscribes.
	OpAbandon
	// OpSlow attaches a subscriber that never reads until the end.
	OpSlow
	// OpClockSweep jumps the clock past the TTL and runs a janitor
	// sweep, asserting exactly the terminal jobs are removed.
	OpClockSweep
	// OpClockJumpBack rewinds the scripted clock and recovers it — the
	// regression an NTP step or VM migration produces — asserting the
	// control plane treats time as monotone throughout.
	OpClockJumpBack
	// OpQuiesce drives to a fixed point and asserts conservation.
	OpQuiesce
	// OpStorm races concurrent submissions against their own cancels.
	OpStorm
	// OpDupSubmit re-submits the identical task of a completed job; with
	// the cache on it must settle as a hit (no solver run).
	OpDupSubmit

	// RKill cancels the solve at a scripted progress event. Cancellation
	// flushes a mid-epoch snapshot, so this is the "process told to die,
	// managed to save state" kill. The next leg resumes from it.
	RKill
	// RCorrupt flips one byte of the checkpoint and proves the next
	// resume rejects it with a diagnostic naming the file — never
	// silently annealing from scratch or from bad state — then restores
	// the pristine bytes.
	RCorrupt
	// RStale swaps the current checkpoint for an earlier snapshot of the
	// same run (the "process died before its latest write was durable"
	// kill). Resuming replays more of the trajectory but, because every
	// snapshot is a pure function of (instance, options, epoch), must
	// still converge to the identical final tour.
	RStale
	// RTorn drops garbage temp-file debris next to the checkpoint — the
	// residue of a crash mid-atomic-write. Load reads only the final
	// path, so resume must ignore it.
	RTorn

	// FKill hard-kills the worker holding the in-flight job (kill -9:
	// local solves cancelled, nothing further sent), then expires its
	// lease. The job must be re-claimed and resumed from the newest
	// checkpoint that node shipped before dying. The dead node is
	// replaced so the fleet keeps its size.
	FKill
	// FBlackhole cuts the holder's network both ways — heartbeats,
	// checkpoint ships and progress posts all fail — until the lease
	// lapses and the job is reassigned; then the partition heals. The
	// isolated worker is still alive and still solving, so its late
	// posts must be dropped as stale (ErrGone), never double-settling
	// the job: the lease-expiry race, end to end.
	FBlackhole
	// FClaimStorm races a burst of synthetic registered nodes calling
	// Claim concurrently against the live fleet, then fires stale
	// completions at the in-flight job. At most one storm claimant can
	// win any job (its claim is immediately revoked back to the real
	// workers), and none of the stale completions may settle anything.
	FClaimStorm
	// FRestart kills every worker and abandons the coordinator and
	// scheduler mid-anneal — the whole control plane dies — then boots a
	// fresh one from the journal and checkpoint dir with a new fleet.
	// Unfinished jobs must be recovered, re-offered, re-claimed and
	// resumed; finished jobs must stay finished.
	FRestart
)

var opNames = [...]string{
	OpSubmit: "submit", OpCancel: "cancel", OpProgress: "progress",
	OpComplete: "complete", OpFail: "fail", OpBurst: "burst",
	OpSubscribe: "subscribe", OpAbandon: "abandon", OpSlow: "slow-subscriber",
	OpClockSweep: "clock-sweep", OpClockJumpBack: "clock-jump-back",
	OpQuiesce: "quiesce", OpStorm: "storm", OpDupSubmit: "dup-submit",
	RKill: "kill", RCorrupt: "corrupt", RStale: "stale-swap", RTorn: "torn-tmp",
	FKill: "kill-node", FBlackhole: "blackhole", FClaimStorm: "claim-storm",
	FRestart: "coordinator-restart",
}

func (k OpKind) String() string {
	if k >= 0 && int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one scripted step. Arg deterministically selects the target
// (modulo whatever population exists when the op runs) or sizes the op.
type Op struct {
	Kind OpKind
	Arg  int
}

// drive runs a schedule's ops in order through one family's step.
// finished names why the remaining ops have nothing left to act on, or
// returns "" while they do; nil means the family never runs out.
func (l *opLog) drive(ops []Op, finished func() string, step func(Op)) {
	for i, op := range ops {
		if finished != nil {
			if why := finished(); why != "" {
				l.logf("op %d: %s skipped, %s", i, op.Kind, why)
				continue
			}
		}
		l.logf("op %d: %s(%d)", i, op.Kind, op.Arg)
		step(op)
	}
}

// opLog records what a run did, so a failure names the variable that
// replays it (its prefix: "[seed N]", "[resume seed N]", "[fleet seed
// N]") and the ops that led up to it.
type opLog struct {
	t      *testing.T
	prefix string
	lines  []string
}

func (l *opLog) logf(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// fatalf aborts with the replay prefix and the tail of the op log.
func (l *opLog) fatalf(format string, args ...any) {
	l.t.Helper()
	tail := l.lines
	if len(tail) > 16 {
		tail = tail[len(tail)-16:]
	}
	l.t.Fatalf("%s %s\nrecent ops:\n  %s", l.prefix, fmt.Sprintf(format, args...), strings.Join(tail, "\n  "))
}

// logAll prints the whole op log of a passing run under -v.
func (l *opLog) logAll(msg string) {
	if testing.Verbose() {
		l.t.Logf("%s %s after:\n  %s", l.prefix, msg, strings.Join(l.lines, "\n  "))
	}
}

// mixRow is one row of a cumulative op-mix table: a draw in [0, 100)
// below `below` (and at or above the previous row's) picks kind.
type mixRow struct {
	below int
	kind  OpKind
}

// genOps draws n weighted ops, each with a 16-bit arg, then closes the
// schedule with a quiesce so every run ends on a full audit.
func genOps(r *rng.Rand, n int, mix []mixRow) []Op {
	ops := make([]Op, 0, n+1)
	for i := 0; i < n; i++ {
		x := r.Intn(100)
		row := 0
		for x >= mix[row].below {
			row++
		}
		ops = append(ops, Op{Kind: mix[row].kind, Arg: int(r.Uint64() & 0xffff)})
	}
	return append(ops, Op{Kind: OpQuiesce})
}

// Schedule is a fully seeded fault script: the scheduler's dimensions
// and the op sequence all derive from Seed, so a failure replays by
// seed alone.
type Schedule struct {
	Seed   uint64
	Slots  int // MaxConcurrent
	Depth  int // QueueDepth
	Replay int // ReplayBuffer (small, so eviction paths run)
	// Tenants is the identity pool submissions draw from ("" = no
	// X-Tenant header, i.e. the default lane); empty means untenanted
	// traffic. Policies is the fairsched quota/weight table.
	Tenants  []string
	Policies map[string]fairsched.Policy
	// CacheEntries > 0 enables the result cache, making OpDupSubmit
	// exercise the hit path.
	CacheEntries int
	Ops          []Op
}

// serveMix and tenantMix are the op mixes of GenSchedule and
// GenTenantSchedule.
var serveMix = []mixRow{
	{26, OpSubmit}, {38, OpCancel}, {52, OpProgress}, {62, OpComplete},
	{68, OpFail}, {72, OpBurst}, {78, OpSubscribe}, {82, OpAbandon},
	{85, OpSlow}, {88, OpClockSweep}, {91, OpClockJumpBack}, {96, OpQuiesce},
	{100, OpStorm},
}

var tenantMix = []mixRow{
	{22, OpSubmit}, {32, OpDupSubmit}, {42, OpCancel}, {54, OpProgress},
	{64, OpComplete}, {69, OpFail}, {73, OpBurst}, {78, OpSubscribe},
	{81, OpAbandon}, {84, OpClockSweep}, {87, OpClockJumpBack}, {94, OpQuiesce},
	{100, OpStorm},
}

// GenSchedule expands a seed into a schedule. The op mix is weighted
// toward churn (submit/cancel/progress) with periodic quiesce points so
// conservation is asserted many times mid-run, not just at the end.
func GenSchedule(seed uint64) Schedule {
	r := rng.New(seed)
	sc := Schedule{
		Seed:   seed,
		Slots:  1 + r.Intn(3),
		Depth:  2 + r.Intn(5),
		Replay: 4 + r.Intn(13),
	}
	sc.Ops = genOps(r, 60+r.Intn(61), serveMix)
	return sc
}

// GenTenantSchedule expands a seed into a multi-tenant schedule with
// the result cache on: traffic spreads across a pool of tenant
// identities (including the headerless default lane), per-tenant
// weights/quotas/rate limits are active, and duplicate submissions
// exercise the cache-hit path mid-churn. Conservation is then asserted
// per tenant as well as per problem and globally.
func GenTenantSchedule(seed uint64) Schedule {
	r := rng.New(seed)
	sc := Schedule{
		Seed:         seed,
		Slots:        2 + r.Intn(2),
		Depth:        6 + r.Intn(7),
		Replay:       4 + r.Intn(13),
		CacheEntries: 4096, // never evicts within a schedule: dups must hit
		Policies:     map[string]fairsched.Policy{},
	}
	pool := []string{"acme", "batch", "edge", ""}
	sc.Tenants = pool[:2+r.Intn(3)]
	for _, name := range []string{"acme", "batch", "edge"} {
		pol := fairsched.Policy{Weight: 1 + r.Intn(4)}
		switch r.Intn(4) {
		case 0:
			pol.MaxQueued = 2 + r.Intn(4)
		case 1:
			pol.MaxRunning = 1 + r.Intn(2)
		case 2:
			// The scripted clock only moves on sweep ops, so the bucket
			// refills in rare 61s jumps; the burst is what gets spent.
			pol.RatePerSec = 1
			pol.Burst = 10 + r.Intn(30)
		}
		sc.Policies[name] = pol
	}
	sc.Ops = genOps(r, 70+r.Intn(51), tenantMix)
	return sc
}

// RunSchedule executes a schedule end to end: every op, then the full
// drain/audit/shutdown sweep in Finish.
func RunSchedule(t *testing.T, sc Schedule) {
	t.Helper()
	h := NewHarness(t, sc)
	h.drive(sc.Ops, nil, h.step)
	h.Finish()
}

// step executes one scripted op.
func (h *Harness) step(op Op) {
	h.t.Helper()
	switch op.Kind {
	case OpSubmit:
		h.submit(op.Arg)
	case OpDupSubmit:
		h.dupSubmit(op.Arg)
	case OpCancel:
		if tj := h.pickJob(op.Arg); tj != nil {
			h.cancel(tj)
		}
	case OpProgress:
		if tj := h.pickRunning(op.Arg); tj != nil {
			h.sendCmd(tj, cmdProgress)
		}
	case OpComplete:
		if tj := h.pickRunning(op.Arg); tj != nil {
			h.sendCmd(tj, cmdSucceed)
		}
	case OpFail:
		if tj := h.pickRunning(op.Arg); tj != nil {
			h.sendCmd(tj, cmdFail)
		}
	case OpBurst:
		h.burst()
	case OpSubscribe:
		if tj := h.pickJob(op.Arg); tj != nil {
			h.attachAuditor(tj)
		}
	case OpAbandon:
		if tj := h.pickJob(op.Arg); tj != nil {
			_, _, _, unsub := tj.job.Subscribe()
			unsub()
			h.logf("abandoned subscriber on %s", tj.name)
		}
	case OpSlow:
		if tj := h.pickJob(op.Arg); tj != nil {
			_, _, ch, _ := tj.job.Subscribe()
			h.slows = append(h.slows, slowSub{job: tj, ch: ch})
			h.logf("slow subscriber on %s", tj.name)
		}
	case OpClockSweep:
		h.clockSweep()
	case OpClockJumpBack:
		h.clockJumpBack(op.Arg)
	case OpQuiesce:
		h.Quiesce()
	case OpStorm:
		h.storm(op.Arg)
	default:
		h.fatalf("op %v is not a service op", op.Kind)
	}
}

// pickJob deterministically selects any tracked job (nil when none).
func (h *Harness) pickJob(arg int) *trackedJob {
	if len(h.jobs) == 0 {
		return nil
	}
	return h.jobs[arg%len(h.jobs)]
}

// pickRunning selects a job the harness believes is running. If none
// is running yet but a queued job can legally take a free slot (its
// lane under any MaxRunning cap), a promotion — or a duplicate's
// cached completion — is in flight; wait for it instead of silently
// skipping the scripted command (which would make targeted ops
// timing-dependent).
func (h *Harness) pickRunning(arg int) *trackedJob {
	h.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		h.syncStarted()
		h.settleCached()
		if r := h.running(); len(r) > 0 {
			return r[arg%len(r)]
		}
		if !h.promotable(false) {
			return nil
		}
		if time.Now().After(deadline) {
			h.fatalf("queued job never reached a slot for a scripted command")
		}
		select {
		case sj := <-h.solver.started:
			h.noteStarted(sj)
		case <-time.After(50 * time.Millisecond):
			// A cached completion settles without a start signal;
			// re-evaluate.
		}
	}
}

// burst submits until backpressure is proven. Accepted submissions are
// bounded by queue depth plus the slots that can drain concurrently
// (and, with tenancy, by per-tenant quotas that reject even sooner),
// so Slots+Depth+8 attempts must observe at least one rejection.
func (h *Harness) burst() {
	h.t.Helper()
	attempts := h.cfg.MaxConcurrent + h.cfg.QueueDepth + 8
	before := h.rejected
	for i := 0; i < attempts; i++ {
		h.submit(i)
	}
	if h.rejected == before {
		h.fatalf("burst of %d submissions saw no backpressure rejection", attempts)
	}
}

// clockSweep settles terminal states, jumps the scripted clock past the
// result TTL and asserts one sweep removes exactly the terminal,
// not-yet-swept jobs — no live job ever, no terminal job left behind.
func (h *Harness) clockSweep() {
	h.t.Helper()
	h.syncStarted()
	h.waitFinishing()
	// A queued duplicate can finalize asynchronously (a worker pops it
	// and serves the cache hit); settle those before counting terminals
	// or the expected removal count would race.
	h.settleAllCached()
	expected := 0
	for _, tj := range h.jobs {
		if tj.phase == phaseTerminal && !tj.swept {
			expected++
		}
	}
	h.clock.Advance(ttl + time.Second)
	removed := h.sched.Sweep()
	if removed != expected {
		h.fatalf("clock-sweep removed %d jobs, want %d", removed, expected)
	}
	for _, tj := range h.jobs {
		if tj.phase == phaseTerminal {
			tj.swept = true
		}
	}
	h.logf("clock-sweep removed %d", removed)
}

// clockJumpBack rewinds the scripted clock, probes the control plane at
// the rewound instant, then recovers to the original time. The scripted
// clock only ever moves at sweep points, so every unswept terminal job
// finished at the current instant and expires a full TTL in the future:
// a janitor sweep during the rewind must remove nothing. The recovery
// leg is the half that pins the fairsched refill regression — the lane
// cursor used to be rewritten to the rewound time, so the same interval
// minted rate-limiter tokens twice once the clock caught back up; with
// the fix the rewind-and-recover round trip is invisible to every lane,
// and the schedule's later bursts and quotas behave as if it never
// happened.
func (h *Harness) clockJumpBack(arg int) {
	h.t.Helper()
	h.syncStarted()
	h.waitFinishing()
	h.settleAllCached()
	back := time.Duration(1+arg%59) * time.Second
	h.clock.Advance(-back)
	if removed := h.sched.Sweep(); removed != 0 {
		h.fatalf("sweep after %v backwards clock jump removed %d jobs; nothing can have expired in the past", back, removed)
	}
	h.clock.Advance(back)
	h.logf("clock jumped back %v and recovered", back)
}

// storm races a fan-out of concurrent submissions each against its own
// immediate cancel — the adversarial interleaving for the queued-gauge
// accounting (a worker can promote the job before, during or after the
// cancel lands).
func (h *Harness) storm(arg int) {
	h.t.Helper()
	g := 2 + arg%4
	type res struct {
		job      *serve.Job
		rejected bool
		err      error
	}
	names := make([]string, g)
	tasks := make([]problem.Task, g)
	kinds := make([]int, g)
	tenants := make([]string, g)
	for i := range names {
		names[i] = fmt.Sprintf("fi-%04d", h.nextID)
		kinds[i] = h.nextID
		tasks[i] = makeTask(names[i], h.nextID)
		tenants[i] = h.pickTenant(arg + i)
		h.nextID++
	}
	results := make([]res, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := h.sched.Submit(serve.Spec{Tenant: tenants[i], Task: tasks[i]})
			switch {
			case err == nil:
				h.sched.Cancel(job.ID)
				results[i] = res{job: job}
			case isRejection(err):
				results[i] = res{rejected: true}
			default:
				results[i] = res{err: err}
			}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		switch {
		case r.err != nil:
			h.fatalf("storm submit %s: unexpected error %v", names[i], r.err)
		case r.rejected:
			h.noteRejected(tenants[i])
		default:
			tj := &trackedJob{name: names[i], problem: tasks[i].Problem(), tenant: r.job.Tenant, kind: kinds[i], job: r.job, phase: phaseFinishing, canceled: true}
			h.jobs = append(h.jobs, tj)
			h.byName[names[i]] = tj
		}
	}
	h.logf("storm fan-out %d", g)
}
