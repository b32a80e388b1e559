package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cimsa/internal/fairsched"
	"cimsa/internal/fleet"
	"cimsa/internal/problem"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current output")

// scriptedSolver settles each solve by label on the test's command:
// finish(label, nil) completes it, finish(label, err) fails it. It
// reports each solve start on started, after the scheduler has read
// the clock for the solve's start, so a test that waits for the
// report can move the fake clock without racing the worker.
type scriptedSolver struct {
	started chan string
	mu      sync.Mutex
	gates   map[string]chan error
	drained bool
}

func newScriptedSolver() *scriptedSolver {
	return &scriptedSolver{started: make(chan string, 64), gates: map[string]chan error{}}
}

func (s *scriptedSolver) gate(label string) chan error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch, ok := s.gates[label]
	if !ok {
		ch = make(chan error, 1)
		if s.drained {
			close(ch)
		}
		s.gates[label] = ch
	}
	return ch
}

func (s *scriptedSolver) finish(label string, err error) { s.gate(label) <- err }

// drain lets every current and future solve complete.
func (s *scriptedSolver) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return
	}
	s.drained = true
	for _, ch := range s.gates {
		close(ch)
	}
}

func (s *scriptedSolver) solve(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
	gate := s.gate(task.Label())
	s.started <- task.Label()
	select {
	case err := <-gate:
		if err != nil {
			return nil, err
		}
		return &problem.Result{Problem: task.Problem(), Instance: task.Label(), N: task.Size(), Objective: 5, Iterations: 1000}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *scriptedSolver) waitStarted(t *testing.T, want ...string) {
	t.Helper()
	seen := map[string]bool{}
	for range want {
		select {
		case got := <-s.started:
			seen[got] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("solves %v never all started (saw %v)", want, seen)
		}
	}
	for _, w := range want {
		if !seen[w] {
			t.Fatalf("solve %q did not start (saw %v)", w, seen)
		}
	}
}

// TestMetricsExpositionGolden pins the whole /metrics exposition byte
// for byte. One scheduler is driven, step by step on a fake clock,
// through every counter the service keeps: done, failed, canceled
// (queued and running), global and per-tenant rejections, a rate
// limit, cache hit/miss/coalesce, two tenants beyond the default and
// two problem types, with jobs left queued and running so the gauges
// are non-zero. Every clock move waits for the scheduler to settle
// first, so the queue-wait histogram and solve seconds are exact.
func TestMetricsExpositionGolden(t *testing.T) {
	clk := newFakeClock()
	sv := newScriptedSolver()
	sched := NewScheduler(Config{
		MaxConcurrent: 2,
		QueueDepth:    3,
		ResultTTL:     time.Hour,
		CacheEntries:  16,
		Tenants: fairsched.Config{Tenants: map[string]fairsched.Policy{
			"acme": {MaxQueued: 1},
			"lim":  {RatePerSec: 0.001, Burst: 1},
		}},
		Solve: sv.solve,
		Now:   clk.Now,
	})
	sched.Metrics.FleetStats = func() fleet.Stats {
		return fleet.Stats{
			Nodes: 2, Claimable: 1, Claimed: 2, Reassigned: 3, StaleDrops: 4,
			PerNode: []fleet.NodeStats{
				{Node: "n1", Claimed: 1, Completed: 5, Reassigned: 1},
				{Node: "n2", Claimed: 1, Completed: 7, Reassigned: 2},
			},
		}
	}
	srv := httptest.NewServer(NewServer(sched).Handler())
	t.Cleanup(func() {
		srv.Close()
		sv.drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
	})

	post := func(tenant, body string, wantCode int) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Status
		_ = json.NewDecoder(resp.Body).Decode(&st)
		if resp.StatusCode != wantCode {
			t.Fatalf("submit %s as %q: HTTP %d, want %d", body, tenant, resp.StatusCode, wantCode)
		}
		return st.ID
	}
	tsp := func(name string) string {
		return `{"generate":{"name":"` + name + `","n":10,"seed":1}}`
	}
	job := func(id string) *Job {
		t.Helper()
		j, ok := sched.Get(id)
		if !ok {
			t.Fatalf("job %s unknown", id)
		}
		return j
	}
	cancel := func(id string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs/"+id+"/cancel", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	// t0: "lead" leads a cache flight; an identical acme submission
	// coalesces onto it; a maxcut job takes the second slot.
	lead := post("", tsp("lead"), http.StatusAccepted)
	sv.waitStarted(t, "lead")
	rider := post("acme", tsp("lead"), http.StatusAccepted)
	for deadline := time.Now().Add(5 * time.Second); sched.Metrics.CacheCoalesced.Load() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("rider never coalesced onto the lead solve")
		}
		time.Sleep(time.Millisecond)
	}
	mc := post("acme", `{"maxcut":{"generate":{"name":"mc","n":16,"density":0.5,"seed":1},"sweeps":20,"seed":3}}`, http.StatusAccepted)
	sv.waitStarted(t, "mc")

	// t0+2s: both slots busy. Fill the queue, trip lim's rate limit,
	// acme's max_queued and the global depth, then cancel a queued job.
	clk.Advance(2 * time.Second)
	q1 := post("", tsp("q1"), http.StatusAccepted)
	r1 := post("lim", tsp("r1"), http.StatusAccepted)
	post("lim", tsp("r2"), http.StatusTooManyRequests)
	q2 := post("acme", tsp("q2"), http.StatusAccepted)
	post("acme", tsp("q3"), http.StatusTooManyRequests)
	post("", tsp("q4"), http.StatusTooManyRequests)
	cancel(q2)
	waitDone(t, job(q2))

	// t0+5s: the lead completes (settling its rider from the cache) and
	// the maxcut job fails; q1 and r1 take the freed slots.
	clk.Advance(3 * time.Second)
	sv.finish("lead", nil)
	sv.finish("mc", errors.New("scripted failure"))
	waitDone(t, job(lead))
	waitDone(t, job(rider))
	waitDone(t, job(mc))
	sv.waitStarted(t, "q1", "r1")

	// t0+7s: q1 completes; a repeat of "lead" is a cache hit; r1 is
	// canceled while running.
	clk.Advance(2 * time.Second)
	sv.finish("q1", nil)
	waitDone(t, job(q1))
	hit := post("", tsp("lead"), http.StatusAccepted)
	waitDone(t, job(hit))
	cancel(r1)
	waitDone(t, job(r1))

	// t0+8s: leave two jobs running and one queued.
	clk.Advance(time.Second)
	post("acme", tsp("q5"), http.StatusAccepted)
	sv.waitStarted(t, "q5")
	post("", tsp("q6"), http.StatusAccepted)
	sv.waitStarted(t, "q6")
	post("", tsp("q7"), http.StatusAccepted)

	var got bytes.Buffer
	if _, err := sched.Metrics.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("/metrics exposition drifted from %s (rerun with -update only if the change is intended)\n--- got ---\n%s", path, got.Bytes())
	}
}

// TestWorkerMetricsGolden pins a fleet worker's /metrics body byte for
// byte for fixed counter values. CI scrapes
// cimserve_worker_checkpoints_shipped_total out of it with awk.
func TestWorkerMetricsGolden(t *testing.T) {
	var got bytes.Buffer
	st := fleet.WorkerStats{Claimed: 7, Completed: 5, Failed: 1, Resumed: 2, Shipped: 13, ReRegisters: 3}
	if err := WriteWorkerMetrics(&got, "w-golden", st); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "worker_metrics.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("worker /metrics drifted from %s\n--- got ---\n%s", path, got.Bytes())
	}
}
