package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cimsa"
	"cimsa/internal/fairsched"
	"cimsa/internal/problem"
	"cimsa/internal/problem/tspprob"
)

// gateSolver scripts per-job completion: each label gets a gate that
// finish() opens. Unlike stubSolver's global release it can end jobs
// one at a time, which the dispatch-ordering tests need.
type gateSolver struct {
	started chan string
	mu      sync.Mutex
	gates   map[string]chan struct{}
	runs    map[string]int
	drained bool // after finishAll, new gates are born open
}

func newGateSolver() *gateSolver {
	return &gateSolver{
		started: make(chan string, 64),
		gates:   map[string]chan struct{}{},
		runs:    map[string]int{},
	}
}

func (g *gateSolver) gate(label string) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch, ok := g.gates[label]
	if !ok {
		ch = make(chan struct{})
		if g.drained {
			close(ch)
		}
		g.gates[label] = ch
	}
	return ch
}

func (g *gateSolver) finish(label string) { close(g.gate(label)) }

// finishAll opens every gate created so far (idempotent), so cleanup
// never leaves a solve blocked.
func (g *gateSolver) finishAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.drained = true
	for _, ch := range g.gates {
		select {
		case <-ch:
		default:
			close(ch)
		}
	}
}

func (g *gateSolver) ranCount(label string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.runs[label]
}

func (g *gateSolver) solve(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
	g.mu.Lock()
	g.runs[task.Label()]++
	g.mu.Unlock()
	g.started <- task.Label()
	select {
	case <-g.gate(task.Label()):
		return &problem.Result{Problem: task.Problem(), Instance: task.Label(), N: task.Size(), Objective: 7}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func newGateScheduler(t *testing.T, g *gateSolver, cfg Config) *Scheduler {
	t.Helper()
	cfg.Solve = g.solve
	s := NewScheduler(cfg)
	t.Cleanup(func() {
		g.finishAll()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// A heavy tenant flooding the queue must not starve a light tenant:
// with equal DRR weights, the light tenant's lone job dispatches
// within the first two pops after a slot frees — not behind the
// heavy tenant's whole backlog, as strict FIFO would order it.
func TestDRRStarvationProof(t *testing.T) {
	g := newGateSolver()
	s := newGateScheduler(t, g, Config{
		MaxConcurrent: 1, QueueDepth: 32,
		Tenants: fairsched.Config{Tenants: map[string]fairsched.Policy{
			"heavy": {Weight: 1},
			"light": {Weight: 1},
		}},
	})

	pin, err := s.Submit(Spec{Tenant: "heavy", Task: testTask(t, "pin")})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-g.started:
		if got != "pin" {
			t.Fatalf("first dispatch %q, want pin", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pin job never started")
	}
	// Flood the heavy lane while the slot is pinned, then queue one
	// light job last in arrival order.
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(Spec{Tenant: "heavy", Task: testTask(t, fmt.Sprintf("h%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	light, err := s.Submit(Spec{Tenant: "light", Task: testTask(t, "l0")})
	if err != nil {
		t.Fatal(err)
	}
	if light.Tenant != "light" {
		t.Fatalf("job tenant %q, want light", light.Tenant)
	}

	g.finish("pin")
	waitDone(t, pin)
	var dispatched []string
	for i := 0; i < 2; i++ {
		select {
		case name := <-g.started:
			dispatched = append(dispatched, name)
			if name == "l0" {
				return // fair share honored; cleanup drains the rest
			}
			g.finish(name)
		case <-time.After(5 * time.Second):
			t.Fatalf("dispatch stalled after %v", dispatched)
		}
	}
	t.Fatalf("light tenant starved: first post-pin dispatches were %v, want l0 within 2", dispatched)
}

// Per-tenant quotas and rate limits reject at submit with typed
// errors, and the rejections land in both the global and per-tenant
// rejected counters.
func TestTenantQuotaRejections(t *testing.T) {
	g := newGateSolver()
	s := newGateScheduler(t, g, Config{
		MaxConcurrent: 1, QueueDepth: 32,
		Tenants: fairsched.Config{Tenants: map[string]fairsched.Policy{
			"capped":  {MaxQueued: 1},
			"limited": {RatePerSec: 0.001, Burst: 1},
		}},
	})

	// Pin the slot so capped's jobs stay queued.
	if _, err := s.Submit(Spec{Tenant: "capped", Task: testTask(t, "pin")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.started:
	case <-time.After(5 * time.Second):
		t.Fatal("pin job never started")
	}
	if _, err := s.Submit(Spec{Tenant: "capped", Task: testTask(t, "q1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Spec{Tenant: "capped", Task: testTask(t, "q2")}); !isTenantQueueFull(err) {
		t.Fatalf("over-quota submit returned %v, want ErrTenantQueueFull", err)
	}

	if _, err := s.Submit(Spec{Tenant: "limited", Task: testTask(t, "r1")}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(Spec{Tenant: "limited", Task: testTask(t, "r2")})
	var rle *fairsched.RateLimitError
	if !asRateLimit(err, &rle) {
		t.Fatalf("rate-limited submit returned %v, want RateLimitError", err)
	}
	if rle.RetryAfter <= 0 {
		t.Fatalf("RetryAfter %v, want positive", rle.RetryAfter)
	}

	if got := s.Metrics.Rejected.Load(); got != 2 {
		t.Fatalf("global rejected = %d, want 2", got)
	}
	if got := s.Metrics.RateLimited.Load(); got != 1 {
		t.Fatalf("rate-limited = %d, want 1", got)
	}
	if got := s.Metrics.Tenant("capped").Rejected.Load(); got != 1 {
		t.Fatalf("capped tenant rejected = %d, want 1", got)
	}
	if got := s.Metrics.Tenant("limited").Rejected.Load(); got != 1 {
		t.Fatalf("limited tenant rejected = %d, want 1", got)
	}
}

// A cache hit must be bit-identical to solving: the duplicate's result
// is byte-for-byte the result a cache-free scheduler produces for the
// same task, its status says Cached, and its terminal stream event
// carries the same payload as the original's.
func TestCacheHitBitIdentity(t *testing.T) {
	in := cimsa.GenerateInstance("cachehit", 64, 9)
	opts := cimsa.Options{Seed: 3, SkipHardware: true}

	// Reference: same task through a cache-free scheduler (the default
	// real solver path in both).
	ref := NewScheduler(Config{MaxConcurrent: 1, QueueDepth: 4})
	defer shutdownNow(t, ref)
	rj, err := ref.Submit(Spec{Task: tspprob.New(in, opts)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, rj)

	s := NewScheduler(Config{MaxConcurrent: 1, QueueDepth: 4, CacheEntries: 16})
	defer shutdownNow(t, s)
	a, err := s.Submit(Spec{Task: tspprob.New(in, opts)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, a)
	b, err := s.Submit(Spec{Task: tspprob.New(in, opts)})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, b)

	if st := a.Status(); st.Cached {
		t.Fatal("first submission reported cached")
	}
	st := b.Status()
	if st.State != StateDone || !st.Cached {
		t.Fatalf("duplicate state %s cached=%v, want done from cache", st.State, st.Cached)
	}
	if a.Result() != b.Result() {
		t.Fatal("cache returned a different result allocation than the leader's")
	}
	refBytes, err := json.Marshal(rj.Result())
	if err != nil {
		t.Fatal(err)
	}
	hitBytes, err := json.Marshal(b.Result())
	if err != nil {
		t.Fatal(err)
	}
	if string(refBytes) != string(hitBytes) {
		t.Fatalf("cache-served result diverges from a direct solve:\n%s\nvs\n%s", hitBytes, refBytes)
	}
	if hits, misses := s.Metrics.CacheHits.Load(), s.Metrics.CacheMisses.Load(); hits != 1 || misses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", hits, misses)
	}

	// Terminal SSE events: same type, same payload (the sequence number
	// differs — the cached job has no progress history).
	lastEvent := func(j *Job) Event {
		replay, _, ch, unsub := j.Subscribe()
		defer unsub()
		go func() {
			for range ch {
			}
		}()
		if len(replay) == 0 {
			t.Fatalf("terminal job %s has no replay", j.ID)
		}
		return replay[len(replay)-1]
	}
	ea, eb := lastEvent(a), lastEvent(b)
	if ea.Type != "done" || eb.Type != "done" {
		t.Fatalf("terminal events %q/%q, want done/done", ea.Type, eb.Type)
	}
	if ea.Length != eb.Length || eb.Error != "" {
		t.Fatalf("cached terminal event diverges: %+v vs %+v", eb, ea)
	}
}

// Concurrent identical submissions coalesce onto one solve — and the
// waiter does NOT hold a solver slot while it waits, so unrelated work
// submitted later still dispatches.
func TestSingleFlightCoalescing(t *testing.T) {
	g := newGateSolver()
	s := newGateScheduler(t, g, Config{MaxConcurrent: 2, QueueDepth: 8, CacheEntries: 16})

	lead, err := s.Submit(Spec{Task: testTask(t, "dup")})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.started:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never started")
	}
	rider, err := s.Submit(Spec{Task: testTask(t, "dup")})
	if err != nil {
		t.Fatal(err)
	}
	// The second worker pops the rider, which must coalesce onto the
	// leader's in-flight solve and give the worker back.
	waitCounter(t, &s.Metrics.CacheCoalesced, 1)

	// Proof the rider freed its slot: with the leader pinning worker 1,
	// a later unrelated job still dispatches on worker 2.
	if _, err := s.Submit(Spec{Task: testTask(t, "other")}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-g.started:
		if got != "other" {
			t.Fatalf("dispatched %q while rider coalesced, want other", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unrelated job starved by a coalesced waiter — rider is holding a slot")
	}
	g.finish("other")

	g.finish("dup")
	waitDone(t, lead)
	waitDone(t, rider)
	if n := g.ranCount("dup"); n != 1 {
		t.Fatalf("solver ran %d times for coalesced submissions, want 1", n)
	}
	st := rider.Status()
	if st.State != StateDone || !st.Cached {
		t.Fatalf("rider state %s cached=%v, want done from cache", st.State, st.Cached)
	}
	if rider.Result() != lead.Result() {
		t.Fatal("rider result is not the leader's")
	}
	if c := s.Metrics.CacheCoalesced.Load(); c != 1 {
		t.Fatalf("coalesced counter %d, want 1", c)
	}
}

// When a coalesced leader is canceled, its rider must not be stranded:
// the abort requeues the rider, which re-dispatches as a fresh leader
// and solves for real.
func TestCoalescedRiderRequeuedOnLeaderCancel(t *testing.T) {
	g := newGateSolver()
	s := newGateScheduler(t, g, Config{MaxConcurrent: 2, QueueDepth: 8, CacheEntries: 16})

	lead, err := s.Submit(Spec{Task: testTask(t, "dup")})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.started:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never started")
	}
	rider, err := s.Submit(Spec{Task: testTask(t, "dup")})
	if err != nil {
		t.Fatal(err)
	}
	waitCounter(t, &s.Metrics.CacheCoalesced, 1)

	if !s.Cancel(lead.ID) {
		t.Fatal("cancel of leader not acknowledged")
	}
	waitDone(t, lead)
	if st := lead.Status().State; st != StateCanceled {
		t.Fatalf("leader state %s, want canceled", st)
	}
	// The rider is requeued and becomes its own leader: a second real
	// solve of the same label.
	select {
	case <-g.started:
	case <-time.After(5 * time.Second):
		t.Fatal("rider never re-dispatched after leader cancel")
	}
	g.finish("dup")
	waitDone(t, rider)
	st := rider.Status()
	if st.State != StateDone || st.Cached {
		t.Fatalf("requeued rider state %s cached=%v, want a fresh (uncached) solve", st.State, st.Cached)
	}
	if n := g.ranCount("dup"); n != 2 {
		t.Fatalf("solver ran %d times, want 2 (canceled leader + requeued rider)", n)
	}
}

// The HTTP face of tenancy: X-Tenant selects the lane, hostile headers
// get 400, quota/rate rejections get 429 with Retry-After, the jobs
// summary partitions by tenant alongside problems, and the per-tenant
// metric families appear on /metrics.
func TestHTTPTenancy(t *testing.T) {
	_, base := newTestServer(t, Config{
		MaxConcurrent: 1, QueueDepth: 8, CacheEntries: 8,
		Tenants: fairsched.Config{Tenants: map[string]fairsched.Policy{
			"acme": {Weight: 2, RatePerSec: 0.001, Burst: 1},
		}},
	})
	submit := func(tenant, name string) *http.Response {
		t.Helper()
		data, err := json.Marshal(SubmitRequest{
			Generate: &GenerateSpec{Name: name, N: 64, Seed: 1},
			Options:  OptionsSpec{Seed: 1, SkipHardware: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Tenanted submit: accepted, and the status carries the lane.
	resp := submit("acme", "ht1")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenanted submit returned %d", resp.StatusCode)
	}
	st := decodeJSON[Status](t, resp)
	if st.Tenant != "acme" {
		t.Fatalf("status tenant %q, want acme", st.Tenant)
	}
	pollState(t, base, st.ID, StateDone, time.Minute)

	// Token bucket exhausted (burst 1, refill ~never): 429 + Retry-After.
	resp = submit("acme", "ht2")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited submit returned %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("rate-limited response Retry-After %q, want a positive integer", ra)
	}
	resp.Body.Close()

	// Hostile header: 400, nothing admitted.
	resp = submit("no spaces allowed", "ht3")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid X-Tenant returned %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Headerless submit rides the default lane.
	resp = submit("", "ht4")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("headerless submit returned %d", resp.StatusCode)
	}
	st2 := decodeJSON[Status](t, resp)
	if st2.Tenant != fairsched.DefaultTenant {
		t.Fatalf("headerless tenant %q, want %q", st2.Tenant, fairsched.DefaultTenant)
	}
	pollState(t, base, st2.ID, StateDone, time.Minute)

	// The jobs summary partitions by tenant alongside problems.
	type listResp struct {
		Jobs     []Status                  `json:"jobs"`
		Problems map[string]map[string]int `json:"problems"`
		Tenants  map[string]map[string]int `json:"tenants"`
	}
	lr := decodeJSON[listResp](t, mustGet(t, base+"/v1/jobs"))
	if lr.Tenants["acme"]["done"] != 1 || lr.Tenants[fairsched.DefaultTenant]["done"] != 1 {
		t.Fatalf("tenant summary %+v, want one done job each for acme and default", lr.Tenants)
	}
	if lr.Problems["tsp"]["done"] != 2 {
		t.Fatalf("problem summary %+v lost its per-problem dimension", lr.Problems)
	}

	// Per-tenant metric families, including the queue-wait histogram.
	metrics := readBody(t, mustGet(t, base+"/metrics"))
	for _, want := range []string{
		`cimserve_tenant_jobs_submitted_total{tenant="acme"} 1`,
		`cimserve_tenant_jobs_rejected_total{tenant="acme"} 1`,
		`cimserve_tenant_jobs_done_total{tenant="default"} 1`,
		`cimserve_queue_wait_seconds_bucket{tenant="acme",le="+Inf"} 1`,
		`cimserve_queue_wait_seconds_count{tenant="acme"} 1`,
		"cimserve_jobs_rate_limited_total 1",
		"cimserve_cache_misses_total 2",
		"cimserve_cache_entries 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// waitCounter polls an atomic counter until it reaches want.
func waitCounter(t *testing.T, c interface{ Load() int64 }, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want %d", c.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func shutdownNow(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}

func isTenantQueueFull(err error) bool { return errors.Is(err, ErrTenantQueueFull) }

func asRateLimit(err error, out **fairsched.RateLimitError) bool { return errors.As(err, out) }
