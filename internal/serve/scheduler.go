package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cimsa/internal/checkpoint"
	"cimsa/internal/fairsched"
	"cimsa/internal/fleet"
	"cimsa/internal/problem"
	"cimsa/internal/rescache"
)

// SolveFunc runs one job's solve. Production calls task.Solve; tests
// and the fault-injection harness substitute stubs to script timing.
type SolveFunc func(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error)

// FleetDispatcher hands a job to a fleet of remote workers and blocks
// until one of them (possibly after failovers) returns its result. The
// fleet coordinator implements it; the scheduler stays oblivious to
// leases, claims and checkpoint shipping — dispatch is just another
// solve path, so fairsched lanes, the result cache, SSE streams and
// gauge accounting all apply unchanged in coordinator mode.
type FleetDispatcher interface {
	Offer(ctx context.Context, job fleet.Job, run problem.Run) (*problem.Result, error)
}

// Config sizes the scheduler.
type Config struct {
	// MaxConcurrent is the number of solver slots — jobs solving at
	// once, each with its own worker pool (default 2). This mirrors the
	// chip's structure: a fixed set of annealer replicas time-shared by
	// all clients.
	MaxConcurrent int
	// QueueDepth bounds the jobs waiting for a slot (default 64).
	// Submissions beyond it are rejected immediately (backpressure)
	// rather than buffered without bound.
	QueueDepth int
	// ResultTTL is how long a finished job (and its result) stays
	// fetchable before the janitor removes it (default 15 minutes).
	ResultTTL time.Duration
	// SweepEvery is the janitor period (default 30s).
	SweepEvery time.Duration
	// ReplayBuffer bounds each job's SSE event replay buffer (default
	// 512); the oldest events are evicted first and reported to clients
	// via Status.EventsEvicted and a "truncated" stream frame.
	ReplayBuffer int

	// Journal, when non-nil, durably records submissions that carry a
	// request body (Spec.Source) and retires them on completion, so a
	// crashed server's queued and running jobs are re-enqueued on boot
	// (Server.Recover). Appends are fsynced before the submission is
	// acknowledged.
	Journal *Journal
	// CheckpointDir, when set, gives every job a solver checkpoint
	// directory (CheckpointDir/<jobID>) so a recovered job resumes
	// mid-solve — bit-identical to never having stopped — instead of
	// starting over. A corrupt or mismatched checkpoint is discarded
	// with a diagnostic and the job solves fresh; it never fails the
	// job and is never silently annealed from. The directory is removed
	// when the job reaches a terminal state.
	CheckpointDir string
	// CheckpointEvery writes one snapshot per that many write-back
	// epochs (0 or 1: every epoch).
	CheckpointEvery int
	// Logf receives recovery and resume diagnostics (nil: discarded).
	Logf func(format string, args ...any)

	// Tenants configures the fair scheduler: per-tenant DRR weights and
	// admission quotas. The zero value gives every tenant an unlimited
	// weight-1 lane — behaviourally the old single FIFO. MaxQueuedTotal
	// and Now are overridden from QueueDepth and Config.Now so the
	// global depth and the clock have one source of truth.
	Tenants fairsched.Config
	// CacheEntries/CacheBytes enable the exact-match result cache when
	// either is > 0: identical (instance, design point, seed, solver
	// version) submissions are answered from memory — bit-identical to
	// a fresh solve — and concurrent identical submissions coalesce
	// onto one anneal. Zero values leave caching off.
	CacheEntries int
	CacheBytes   int64

	// Fleet, when non-nil, turns this scheduler into a coordinator:
	// jobs that carry a journalable request body are dispatched to
	// remote workers through the fleet (claim/lease/checkpoint-shipping
	// protocol, internal/fleet) instead of solving on the local slot.
	// Jobs without a source (direct API submissions of in-memory tasks)
	// still solve locally — they cannot be shipped.
	Fleet FleetDispatcher

	// Solve and Now are seams for tests and the fault-injection harness
	// (internal/faultinject); nil means cimsa.SolveContext and time.Now.
	Solve SolveFunc
	Now   func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 15 * time.Minute
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = 30 * time.Second
	}
	if c.ReplayBuffer <= 0 {
		c.ReplayBuffer = maxReplayEvents
	}
	if c.Solve == nil {
		c.Solve = func(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
			return task.Solve(ctx, run)
		}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Submission errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull means the global wait queue is at QueueDepth (HTTP
	// 429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrTenantQueueFull means the submitting tenant's own max_queued
	// quota is exhausted (HTTP 429); other tenants are unaffected.
	ErrTenantQueueFull = fairsched.ErrTenantQueueFull
	// ErrRateLimited matches token-bucket rejections (HTTP 429 with a
	// Retry-After derived from the *fairsched.RateLimitError).
	ErrRateLimited = fairsched.ErrRateLimited
	// ErrShuttingDown means the scheduler no longer accepts jobs (503).
	ErrShuttingDown = errors.New("serve: shutting down")
)

// Scheduler multiplexes solve jobs onto a bounded pool of solver slots
// with a tenant-aware weighted-fair wait queue (internal/fairsched), an
// optional exact-match result cache (internal/rescache), a TTL'd result
// store and graceful shutdown.
type Scheduler struct {
	cfg     Config
	Metrics Metrics

	fq    *fairsched.Queue[*Job]
	cache *rescache.Cache // nil when caching is off

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool

	workers     sync.WaitGroup
	janitorStop chan struct{}
	idSeq       atomic.Int64
	// draining is set when Shutdown's deadline forces mass cancellation;
	// retire leaves those jobs' durable state for the next boot.
	draining atomic.Bool
}

// NewScheduler starts the worker slots and the TTL janitor.
func NewScheduler(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	fqCfg := cfg.Tenants
	fqCfg.MaxQueuedTotal = cfg.QueueDepth
	fqCfg.Now = cfg.Now
	s := &Scheduler{
		cfg:         cfg,
		fq:          fairsched.New[*Job](fqCfg),
		jobs:        map[string]*Job{},
		janitorStop: make(chan struct{}),
	}
	if cfg.CacheEntries > 0 || cfg.CacheBytes > 0 {
		s.cache = rescache.New(cfg.CacheEntries, cfg.CacheBytes)
		s.Metrics.CacheStats = s.cache.Stats
	}
	s.workers.Add(cfg.MaxConcurrent)
	for i := 0; i < cfg.MaxConcurrent; i++ {
		go s.worker()
	}
	go s.janitor()
	return s
}

func (s *Scheduler) newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; the counter
		// alone still yields unique IDs if it somehow does.
		copy(b[:], "status")
	}
	return fmt.Sprintf("j%04d-%s", s.idSeq.Add(1), hex.EncodeToString(b[:]))
}

// Spec is one job submission: the tenant lane ("" means the default
// tenant), the task, and the task's journalable request body. With a
// journal configured, a non-nil Source is persisted (fsynced) before
// the submission is acknowledged, so a later boot can rebuild and
// re-enqueue the job from it; a nil Source skips journaling — the job
// cannot be recovered or fleet-dispatched. The task is owned by the
// scheduler afterwards and must not be mutated.
type Spec struct {
	Tenant string
	Task   problem.Task
	Source json.RawMessage
}

// BatchResult is one submission's outcome: exactly one of Job and Err
// is set.
type BatchResult struct {
	Job *Job
	Err error
}

// Submit validates and enqueues one job: a batch of one.
func (s *Scheduler) Submit(sp Spec) (*Job, error) {
	r := s.submit([]Spec{sp}, "", time.Time{})[0]
	return r.Job, r.Err
}

// SubmitBatch admits many jobs in a single critical section with a
// single journal fsync — the amortization that makes the
// many-small-instances regime cheap: one HTTP round trip, one lock
// acquisition, one durability barrier for the whole batch. Admission is
// per-item (each item still pays its tenant's quotas and rate tokens,
// so a batch cannot smuggle jobs past fairsched), and per-item failures
// reject only that item. If the collective journal append fails, every
// admitted item is rejected — none was acknowledged durable.
func (s *Scheduler) SubmitBatch(specs []Spec) []BatchResult {
	return s.submit(specs, "", time.Time{})
}

// Resubmit re-enqueues a recovered job under its original ID and
// submission time (the tenant from its record: records from before
// tenancy carry none and recover under the default lane). The journal
// already holds its record, so nothing is re-journaled — and the
// tenant's admission quotas are bypassed: the job was already accepted
// once, so a rate limit or a queued cap must not drop it at boot. The
// source is kept on the job so a coordinator can re-dispatch the
// recovered job to the fleet.
func (s *Scheduler) Resubmit(id string, submitted time.Time, sp Spec) (*Job, error) {
	r := s.submit([]Spec{sp}, id, submitted)[0]
	return r.Job, r.Err
}

// submit is the one admission path. Under s.mu it builds each job,
// admits it under its tenant's quotas (unless recovered), journals
// every new journalable job with one append and one fsync — so the
// journal order matches the queue order — returns the admitted slots if
// that append fails, and finally raises the gauges and pushes. A
// non-empty id marks a single recovered job, which keeps its ID and
// submission time and is admitted and journaled already.
func (s *Scheduler) submit(specs []Spec, id string, submitted time.Time) []BatchResult {
	out := make([]BatchResult, len(specs))
	for i, sp := range specs {
		if sp.Task == nil {
			out[i].Err = errors.New("serve: submission has no task")
		} else {
			out[i].Err = sp.Task.Validate()
		}
	}
	recovered := id != ""
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Now()
	if submitted.IsZero() {
		submitted = now
	}
	var jobs []*Job // admitted jobs, in submission order
	var at []int    // jobs[k] answers specs[at[k]]
	var recs []SubmitRecord
	for i, sp := range specs {
		if out[i].Err != nil {
			continue
		}
		if s.closed {
			out[i].Err = ErrShuttingDown
			continue
		}
		jid := id
		if !recovered {
			jid = s.newID()
		}
		if _, dup := s.jobs[jid]; dup {
			out[i].Err = fmt.Errorf("serve: job %s already exists", jid)
			continue
		}
		lane := s.fq.Canonical(sp.Tenant)
		if !recovered {
			// Only submit pushes onto the fair queue and only while
			// holding s.mu, so Admit's verdict decides the Push without
			// racing other submitters.
			if err := s.fq.Admit(lane); err != nil {
				if errors.Is(err, fairsched.ErrClosed) {
					err = ErrShuttingDown
				} else {
					s.Metrics.reject(lane, errors.Is(err, ErrRateLimited))
					if errors.Is(err, fairsched.ErrQueueFull) {
						err = ErrQueueFull
					}
				}
				out[i].Err = err
				continue
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		job := &Job{
			ID:          jid,
			Tenant:      lane,
			problem:     sp.Task.Problem(),
			label:       sp.Task.Label(),
			size:        sp.Task.Size(),
			task:        sp.Task,
			source:      sp.Source,
			ctx:         ctx,
			cancel:      cancel,
			done:        make(chan struct{}),
			replayLimit: s.cfg.ReplayBuffer,
			journaled:   s.cfg.Journal != nil && sp.Source != nil,
			state:       StateQueued,
			submitted:   submitted,
		}
		if job.journaled && !recovered {
			recs = append(recs, SubmitRecord{ID: jid, Tenant: lane, Problem: job.problem, Submitted: submitted, Request: sp.Source})
		}
		jobs = append(jobs, job)
		at = append(at, i)
	}
	// Durability before acknowledgement: if the journal can't hold the
	// batch, no client may believe any of it was accepted.
	if len(recs) > 0 {
		if err := s.cfg.Journal.SubmittedBatch(recs); err != nil {
			for k, job := range jobs {
				job.cancel()
				s.fq.Unadmit(job.Tenant) // the admitted slot will never be pushed
				out[at[k]].Err = err
			}
			return out
		}
	}
	for k, job := range jobs {
		// The gauge must rise before the job becomes visible to a
		// worker: workers don't take s.mu, so counting after the Push
		// lets an eager worker's dispatch drive the gauge negative.
		s.Metrics.move(job.problem, job.Tenant, "", StateQueued)
		s.fq.Push(job.Tenant, job) // cannot fail: fq closes under s.mu with closed=true
		s.jobs[job.ID] = job
		out[at[k]].Job = job
	}
	return out
}

// Get returns a job by ID.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List snapshots every tracked job, oldest submission first.
func (s *Scheduler) List() []Status {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Submitted.Equal(out[k].Submitted) {
			return out[i].Submitted.Before(out[k].Submitted)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Cancel aborts a job. A queued job is finalized immediately (the
// worker that later pops it skips it); a running job's solve context is
// cancelled and the slot's worker finalizes it as soon as the solver
// observes the cancellation (between chromatic phases, so promptly).
// Cancelling a finished job is a no-op. Returns false if the ID is
// unknown.
func (s *Scheduler) Cancel(id string) bool {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	job.cancel()
	if s.cancelQueued(job) {
		// Pull the corpse out of its lane so it stops occupying the
		// tenant's queued quota and cannot clog a running-capped lane.
		// (A job already popped — running, or coalesced on an in-flight
		// identical solve — is simply not found here; that's fine.)
		s.fq.Remove(job.Tenant, func(j *Job) bool { return j == job })
	}
	return true
}

// cancelQueued finalizes a job that is still queued as canceled; it
// reports false (and does nothing) if the job already left the queued
// state. Shared by Cancel and the coalesced requeue path when the
// queue has shut down.
func (s *Scheduler) cancelQueued(job *Job) bool {
	return s.settle(job, StateQueued, outcome{state: StateCanceled, err: context.Canceled})
}

// settle finalizes a job leaving state from — the cache-served,
// cancel-while-queued and done/failed/canceled paths all end here: the
// terminal state and event, the counters, the durable cleanup, then
// Done(). It reports false, doing nothing, if the job already left
// state from. A job served from the cache leaves the queue here, so its
// queue wait (submit→completion) is observed here too.
func (s *Scheduler) settle(job *Job, from State, out outcome) bool {
	now := s.cfg.Now()
	if !job.settle(from, out, now, now.Add(s.cfg.ResultTTL)) {
		return false
	}
	s.Metrics.move(job.problem, job.Tenant, from, out.state)
	if out.cached {
		s.Metrics.ObserveQueueWait(job.Tenant, now.Sub(job.submitted))
	}
	// Retire before signalling done: an observer of Done() may rely on
	// the durable footprint (journal record, checkpoints) being gone.
	s.retire(job, out.state)
	close(job.done)
	return true
}

// retire cleans up a terminal job's durable footprint: its journal
// record (so the next boot will not recover it) and its checkpoint
// directory; st is the state the job settled in. Failures are logged,
// not fatal — the job itself finished.
//
// Exception: a job cancelled by the shutdown drain deadline was not
// cancelled by anyone who wanted it gone — its record and checkpoint
// are left in place so the next boot resumes it from the snapshot the
// solver flushed on the way out.
func (s *Scheduler) retire(job *Job, st State) {
	if s.draining.Load() && st == StateCanceled {
		s.cfg.Logf("job %s: interrupted by shutdown; preserved for recovery", job.ID)
		return
	}
	if job.journaled && s.cfg.Journal != nil {
		if err := s.cfg.Journal.Finished(job.ID); err != nil {
			s.cfg.Logf("job %s: journal retire: %v", job.ID, err)
		}
	}
	if s.cfg.CheckpointDir != "" {
		if err := os.RemoveAll(s.jobCheckpointDir(job.ID)); err != nil {
			s.cfg.Logf("job %s: checkpoint cleanup: %v", job.ID, err)
		}
	}
}

func (s *Scheduler) jobCheckpointDir(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, id)
}

func (s *Scheduler) worker() {
	defer s.workers.Done()
	for {
		job, ok := s.fq.Pop()
		if !ok {
			return
		}
		s.dispatch(job)
	}
}

// dispatch routes one popped job: straight to a solve when caching is
// off, otherwise through the result cache. Every Pop is paired with
// exactly one Release — immediately for a coalesced waiter (it occupies
// no slot while it rides the leader's solve), after the job settles
// otherwise.
func (s *Scheduler) dispatch(job *Job) {
	job.mu.Lock()
	task := job.task // nil once settled
	job.mu.Unlock()
	if task == nil {
		// Canceled while queued; Cancel already finalized it and fixed
		// the gauges.
		s.fq.Release(job.Tenant)
		return
	}
	if s.cache == nil {
		s.run(job, "")
		s.fq.Release(job.Tenant)
		return
	}
	key := cacheKey(task)
	res, role := s.cache.Acquire(key, func(res *problem.Result, ok bool) {
		s.coalesced(job, res, ok)
	})
	switch role {
	case rescache.RoleHit:
		s.Metrics.CacheHits.Add(1)
		s.finishCached(job, res)
		s.fq.Release(job.Tenant)
	case rescache.RoleWaiter:
		// An identical solve is in flight: ride it instead of burning a
		// slot on a duplicate anneal. The job stays StateQueued (so
		// Cancel keeps working) and the slot frees for other work; the
		// callback finalizes it — or requeues it if the leader aborts.
		s.Metrics.CacheCoalesced.Add(1)
		s.fq.Release(job.Tenant)
	default:
		s.Metrics.CacheMisses.Add(1)
		s.run(job, key)
		s.fq.Release(job.Tenant)
	}
}

// cacheKey identifies a solve's output exactly: the canonical instance
// content hash, the design-point hash (every result-affecting solve
// parameter plus the backend's solver-version tag) and the instance
// label (part of the served Result, so two differently-named identical
// instances never share bytes).
func cacheKey(task problem.Task) string {
	return task.InstanceHash() + "|" + task.DesignHash() + "|" + task.Label()
}

// finishCached settles a queued job with a cache-served result:
// queued → done without ever running, consuming no solver randomness.
// The job still gets its terminal SSE event and its journal record is
// retired like any other outcome. No-op if the job turned terminal
// concurrently (a cancel won the race — the cancel path owned the
// gauges).
func (s *Scheduler) finishCached(job *Job, res *problem.Result) {
	s.settle(job, StateQueued, outcome{state: StateDone, result: res, cached: true})
}

// coalesced is the waiter callback for a job riding an identical
// in-flight solve; it runs on the leader's worker goroutine. A
// successful leader settles the waiter from the shared result; an
// aborted leader (failed or canceled) requeues the waiter for a fresh
// solve of its own — its submission was accepted, so it must not
// inherit the leader's fate.
func (s *Scheduler) coalesced(job *Job, res *problem.Result, ok bool) {
	if ok {
		s.finishCached(job, res)
		return
	}
	job.mu.Lock()
	terminal := job.state.Terminal()
	job.mu.Unlock()
	if terminal {
		return // canceled while coalesced; Cancel finalized it
	}
	if !s.fq.Push(job.Tenant, job) {
		// Shutting down: nothing will pop a requeue, finalize instead.
		s.cancelQueued(job)
	}
}

// run executes one job on the calling worker's slot. A non-empty key
// means this job leads a cache flight and must settle it: Complete on
// success, Abort otherwise (so coalesced waiters are always notified).
func (s *Scheduler) run(job *Job, key string) {
	job.mu.Lock()
	if job.state.Terminal() {
		job.mu.Unlock()
		if key != "" {
			s.cache.Abort(key)
		}
		return
	}
	job.state = StateRunning
	job.started = s.cfg.Now()
	task, source := job.task, job.source
	job.mu.Unlock()
	s.Metrics.move(job.problem, job.Tenant, StateQueued, StateRunning)
	s.Metrics.ObserveQueueWait(job.Tenant, job.started.Sub(job.submitted))

	run := problem.Run{
		Progress: func(ev problem.Progress) {
			pe := ev
			job.publish(&pe)
		},
	}
	if s.cfg.CheckpointDir != "" {
		run.CheckpointDir = s.jobCheckpointDir(job.ID)
		run.CheckpointEvery = s.cfg.CheckpointEvery
		run.OnCheckpointWrite = func(string) { s.Metrics.CheckpointsWritten.Add(1) }
		run.OnCheckpointResume = func(path string) {
			s.Metrics.Resumes.Add(1)
			s.cfg.Logf("job %s: resuming from checkpoint %s", job.ID, path)
		}
	}
	solve := s.cfg.Solve
	if s.cfg.Fleet != nil && len(source) > 0 {
		// Coordinator mode: offer the job to the fleet and wait for a
		// worker's result. The Run hooks flow through unchanged — the
		// coordinator invokes Progress for shipped progress events and
		// OnCheckpointWrite when a worker ships a snapshot into this
		// job's checkpoint directory — so SSE streams and checkpoint
		// metrics behave exactly as for a local solve. Worker-side
		// checkpoint rejection is handled on the worker (discard, solve
		// fresh), so Offer never returns ErrInvalid/ErrMismatch.
		fj := fleet.Job{
			ID:              job.ID,
			Problem:         job.problem,
			Tenant:          job.Tenant,
			Source:          source,
			CheckpointDir:   run.CheckpointDir,
			CheckpointEvery: s.cfg.CheckpointEvery,
		}
		solve = func(ctx context.Context, _ problem.Task, run problem.Run) (*problem.Result, error) {
			return s.cfg.Fleet.Offer(ctx, fj, run)
		}
	}
	start := s.cfg.Now()
	res, err := solve(job.ctx, task, run)
	if err != nil && run.CheckpointDir != "" &&
		(errors.Is(err, checkpoint.ErrInvalid) || errors.Is(err, checkpoint.ErrMismatch)) {
		// The checkpoint this job left behind is unusable (corrupt file,
		// or the recovered request maps to a different design point).
		// Never anneal from bad state and never fail the job for it:
		// log the diagnostic, discard the directory, solve fresh.
		s.Metrics.ResumeFailures.Add(1)
		s.cfg.Logf("job %s: checkpoint rejected, solving fresh: %v", job.ID, err)
		if rerr := os.RemoveAll(run.CheckpointDir); rerr != nil {
			s.cfg.Logf("job %s: discarding checkpoint: %v", job.ID, rerr)
		}
		res, err = solve(job.ctx, task, run)
	}
	elapsed := s.cfg.Now().Sub(start)

	out := outcome{state: StateDone, result: res}
	switch {
	case err == nil:
		s.Metrics.ObserveSolve(elapsed.Nanoseconds(), res.Iterations)
		if key != "" {
			// Settle the flight before the terminal event: waiters
			// coalesced on this solve finalize on this goroutine, so by
			// the time this job reports done its riders are done too.
			s.cache.Complete(key, res)
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		out = outcome{state: StateCanceled, err: err}
	default:
		out = outcome{state: StateFailed, err: err}
	}
	if err != nil && key != "" {
		s.cache.Abort(key)
	}
	// A cancelled job is terminal from the client's point of view (the
	// cancel was asked for), so its journal record and checkpoints are
	// retired like any other outcome; only a killed process leaves them
	// behind for recovery.
	s.settle(job, StateRunning, out)
}

// janitor periodically expires finished jobs past their TTL.
func (s *Scheduler) janitor() {
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.sweep()
		case <-s.janitorStop:
			return
		}
	}
}

// Sweep runs one janitor pass immediately, removing finished jobs whose
// TTL has lapsed, and returns how many were removed. The periodic
// janitor calls the same logic; the fault-injection harness calls Sweep
// directly to pair scripted clock jumps with deterministic sweeps.
func (s *Scheduler) Sweep() int { return s.sweep() }

// sweep removes finished jobs whose TTL has lapsed, returning how many
// were evicted. (Exported behaviour is via the janitor and Sweep; tests
// call it directly.)
func (s *Scheduler) sweep() int {
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for id, job := range s.jobs {
		job.mu.Lock()
		expired := job.state.Terminal() && now.After(job.expires)
		job.mu.Unlock()
		if expired {
			delete(s.jobs, id)
			removed++
		}
	}
	return removed
}

// Shutdown stops accepting jobs and drains: queued jobs still run, and
// in-flight solves finish, as long as ctx allows. When ctx expires
// every outstanding job is cancelled (the solvers abort between
// chromatic phases) and Shutdown returns ctx.Err() once the workers
// exit. Safe to call once.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.workers.Wait()
		return nil
	}
	s.closed = true
	s.fq.Close()
	close(s.janitorStop)
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.draining.Store(true)
		s.mu.Lock()
		ids := make([]string, 0, len(s.jobs))
		for id := range s.jobs {
			ids = append(ids, id)
		}
		s.mu.Unlock()
		for _, id := range ids {
			s.Cancel(id)
		}
		<-drained
		return ctx.Err()
	}
}
