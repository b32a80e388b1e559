package fleet_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cimsa/internal/fleet"
	"cimsa/internal/problem"
	"cimsa/internal/serve"
)

// tspSource is a small deterministic TSP job in the service's wire
// schema; workers rebuild it through serve.TaskFor exactly as
// cmd/cimserve wires them.
const tspSource = `{"generate":{"name":"fleet-test","n":200,"seed":3},"options":{"pmax":3,"seed":9,"skip_hardware":true}}`

func buildTask(source json.RawMessage) (problem.Task, error) {
	var req serve.SubmitRequest
	if err := json.Unmarshal(source, &req); err != nil {
		return nil, err
	}
	return serve.TaskFor(&req, problem.Limits{})
}

// fakeClock is an injectable coordinator clock so lease expiry is
// scripted, not slept for.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// mustJSON canonicalizes v for bit-identity comparison: one marshal,
// one unmarshal into untyped maps, one re-marshal. The round-trip puts
// typed structs and JSON-decoded maps into the same key order while
// float64 values survive exactly, so equal strings mean equal bits.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var x any
	if err := json.Unmarshal(data, &x); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func newWorker(t *testing.T, node string, tr fleet.Transport) *fleet.Worker {
	t.Helper()
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Node:           node,
		Transport:      tr,
		BuildTask:      buildTask,
		ScratchDir:     t.TempDir(),
		HeartbeatEvery: 5 * time.Millisecond,
		PollEvery:      2 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// startWorker launches w.Run and holds test teardown until the worker
// goroutine has fully exited: Run logs through t.Logf, which panics if
// it fires after the test returns. The t.Cleanup runs after the test's
// deferred cancel(), so the wait always terminates.
func startWorker(t *testing.T, ctx context.Context, w *fleet.Worker) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	t.Cleanup(func() { <-done })
}

// TestFailoverBitIdentity is the tentpole contract end to end,
// in-process: worker A claims the job, ships epoch checkpoints, and is
// hard-killed mid-anneal; the lease lapses, worker B re-claims, resumes
// from the newest shipped checkpoint, and the delivered result is
// bit-identical to an uninterrupted solve of the same job.
func TestFailoverBitIdentity(t *testing.T) {
	source := json.RawMessage(tspSource)
	task, err := buildTask(source)
	if err != nil {
		t.Fatal(err)
	}
	want, err := task.Solve(context.Background(), problem.Run{})
	if err != nil {
		t.Fatal(err)
	}

	clk := newFakeClock()
	coord := fleet.NewCoordinator(fleet.Config{Lease: time.Minute, Now: clk.Now, Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	wa := newWorker(t, "node-a", coord)
	wb := newWorker(t, "node-b", coord)

	// Kill A on the first progress event after at least one checkpoint
	// has landed on the coordinator — guaranteed mid-anneal, guaranteed
	// partial state to fail over with. Every progress event follows an
	// epoch snapshot already handed to the background writer, so the
	// hook waits for that first ship instead of racing it: a 200-city
	// solve can otherwise finish before its first write lands.
	shipped := make(chan struct{})
	var shipOnce sync.Once
	killed := make(chan struct{})
	var killOnce sync.Once
	run := problem.Run{
		Progress: func(problem.Progress) {
			select {
			case <-shipped:
			case <-time.After(10 * time.Second):
				return
			}
			killOnce.Do(func() {
				wa.Kill()
				close(killed)
			})
		},
		OnCheckpointWrite: func(string) {
			shipOnce.Do(func() { close(shipped) })
		},
	}

	ckptDir := t.TempDir()
	type settled struct {
		res *problem.Result
		err error
	}
	done := make(chan settled, 1)
	go func() {
		res, err := coord.Offer(ctx, fleet.Job{
			ID:              "j-failover",
			Problem:         "tsp",
			Source:          source,
			CheckpointDir:   ckptDir,
			CheckpointEvery: 1,
		}, run)
		done <- settled{res, err}
	}()

	startWorker(t, ctx, wa)
	select {
	case <-killed:
	case <-time.After(30 * time.Second):
		t.Fatal("worker A was never killed (no checkpoint shipped?)")
	}

	// The coordinator hears nothing more from A; only the sweep can
	// discover the death. Before the lease lapses the job must NOT be
	// claimable.
	if n := coord.Sweep(); n != 0 {
		t.Fatalf("sweep before expiry revoked %d leases", n)
	}
	clk.Advance(time.Minute + time.Second)
	if n := coord.Sweep(); n != 1 {
		t.Fatalf("sweep after expiry revoked %d leases, want 1", n)
	}

	startWorker(t, ctx, wb)
	var got settled
	select {
	case got = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("offer never settled after failover")
	}
	if got.err != nil {
		t.Fatalf("failover solve failed: %v", got.err)
	}
	if gotJSON, wantJSON := mustJSON(t, got.res), mustJSON(t, want); gotJSON != wantJSON {
		t.Fatalf("failover result differs from uninterrupted solve:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if wb.Stats().Resumed == 0 {
		t.Fatal("worker B solved fresh instead of resuming the shipped checkpoint")
	}
	stats := coord.Stats()
	if stats.Reassigned != 1 {
		t.Fatalf("stats.Reassigned = %d, want 1", stats.Reassigned)
	}
	if stats.Claimed != 0 || stats.Claimable != 0 {
		t.Fatalf("job still outstanding after settle: %+v", stats)
	}
}

// TestLeaseExpiryAndStaleToken scripts the clock through a full
// reassignment: A's lease lapses, the job goes back to the queue front,
// A's late completion is rejected with ErrGone (exactly-once terminal
// settlement), and B's completion with the fresh token lands.
func TestLeaseExpiryAndStaleToken(t *testing.T) {
	clk := newFakeClock()
	coord := fleet.NewCoordinator(fleet.Config{Lease: 10 * time.Second, Now: clk.Now})
	if err := coord.Register("a"); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var res *problem.Result
	var offErr error
	go func() {
		defer close(done)
		res, offErr = coord.Offer(context.Background(), fleet.Job{ID: "j1", Problem: "tsp", Source: json.RawMessage(`{}`)}, problem.Run{})
	}()
	waitUntil(t, "job claimable", func() bool { return coord.Stats().Claimable == 1 })

	g1, err := coord.Claim("a")
	if err != nil || g1 == nil {
		t.Fatalf("claim: %v, %v", g1, err)
	}
	if g1.LeaseMillis != (10 * time.Second).Milliseconds() {
		t.Fatalf("grant lease %dms, want 10000", g1.LeaseMillis)
	}

	// A touch just before expiry renews; the job stays leased.
	clk.Advance(9 * time.Second)
	if _, err := coord.Heartbeat("a"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(9 * time.Second)
	if n := coord.Sweep(); n != 0 {
		t.Fatalf("renewed lease swept: %d revoked", n)
	}

	// Silence past the lease: the sweep revokes, the holder is told to
	// stop on its next heartbeat, and its token is dead.
	clk.Advance(2 * time.Second)
	if n := coord.Sweep(); n != 1 {
		t.Fatalf("sweep revoked %d, want 1", n)
	}
	cancels, err := coord.Heartbeat("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(cancels) != 1 || cancels[0] != "j1" {
		t.Fatalf("heartbeat cancels = %v, want [j1]", cancels)
	}
	if err := coord.Complete("j1", "a", g1.Token, &problem.Result{Problem: "tsp"}, ""); !errors.Is(err, fleet.ErrGone) {
		t.Fatalf("stale completion: got %v, want ErrGone", err)
	}

	if err := coord.Register("b"); err != nil {
		t.Fatal(err)
	}
	g2, err := coord.Claim("b")
	if err != nil || g2 == nil {
		t.Fatalf("re-claim: %v, %v", g2, err)
	}
	if g2.Token == g1.Token {
		t.Fatal("re-claim reused the stale token")
	}
	wantRes := &problem.Result{Problem: "tsp", Objective: 42}
	if err := coord.Complete("j1", "b", g2.Token, wantRes, ""); err != nil {
		t.Fatal(err)
	}
	<-done
	if offErr != nil || res == nil || res.Objective != 42 {
		t.Fatalf("offer settled with (%v, %v)", res, offErr)
	}

	stats := coord.Stats()
	if stats.Reassigned != 1 || stats.StaleDrops != 1 {
		t.Fatalf("stats = %+v, want Reassigned 1, StaleDrops 1", stats)
	}

	// Nodes silent for three leases are forgotten entirely.
	clk.Advance(31 * time.Second)
	coord.Sweep()
	if _, err := coord.Heartbeat("a"); !errors.Is(err, fleet.ErrUnknownNode) {
		t.Fatalf("forgotten node heartbeat: got %v, want ErrUnknownNode", err)
	}
}

// TestRegisterGuards: node names obey the same hostile-name alphabet as
// tenants (they flow into metric labels and journal records), and calls
// from never-registered nodes are refused.
func TestRegisterGuards(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{})
	for _, bad := range []string{"", "two words", "a/b", strings.Repeat("x", 65), "naïve"} {
		if err := coord.Register(bad); !errors.Is(err, fleet.ErrBadNodeName) {
			t.Errorf("Register(%q) = %v, want ErrBadNodeName", bad, err)
		}
	}
	if err := coord.Register("node-1.a_B"); err != nil {
		t.Fatalf("valid name rejected: %v", err)
	}
	if _, err := coord.Heartbeat("ghost"); !errors.Is(err, fleet.ErrUnknownNode) {
		t.Errorf("Heartbeat(ghost) = %v, want ErrUnknownNode", err)
	}
	if _, err := coord.Claim("ghost"); !errors.Is(err, fleet.ErrUnknownNode) {
		t.Errorf("Claim(ghost) = %v, want ErrUnknownNode", err)
	}
}

// TestOfferWithdrawnOnCancel: cancelling the offer's context while the
// job is queued withdraws it (nothing left to claim); cancelling while
// leased tells the holder to stop via its next heartbeat.
func TestOfferWithdrawnOnCancel(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{})
	if err := coord.Register("a"); err != nil {
		t.Fatal(err)
	}

	// Queued, then cancelled.
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan error, 1)
	go func() {
		_, err := coord.Offer(ctx1, fleet.Job{ID: "q1", Source: json.RawMessage(`{}`)}, problem.Run{})
		done1 <- err
	}()
	waitUntil(t, "q1 claimable", func() bool { return coord.Stats().Claimable == 1 })
	cancel1()
	if err := <-done1; !errors.Is(err, context.Canceled) {
		t.Fatalf("withdrawn offer returned %v", err)
	}
	if g, err := coord.Claim("a"); err != nil || g != nil {
		t.Fatalf("withdrawn job was claimable: %v, %v", g, err)
	}

	// Leased, then cancelled.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() {
		_, err := coord.Offer(ctx2, fleet.Job{ID: "q2", Source: json.RawMessage(`{}`)}, problem.Run{})
		done2 <- err
	}()
	waitUntil(t, "q2 claimable", func() bool { return coord.Stats().Claimable == 1 })
	g, err := coord.Claim("a")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	cancel2()
	if err := <-done2; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled offer returned %v", err)
	}
	cancels, err := coord.Heartbeat("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(cancels) != 1 || cancels[0] != "q2" {
		t.Fatalf("heartbeat cancels = %v, want [q2]", cancels)
	}
	if err := coord.Complete("q2", "a", g.Token, nil, "x"); !errors.Is(err, fleet.ErrGone) {
		t.Fatalf("completion of withdrawn job: got %v, want ErrGone", err)
	}
}

// failingClaimLog fails the first Claimed call; used to prove a claim
// that could not be journaled is not granted.
type failingClaimLog struct {
	mu       sync.Mutex
	failures int
	claims   []string
	releases []string
}

func (f *failingClaimLog) Claimed(id, node string, expires time.Time) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failures > 0 {
		f.failures--
		return errors.New("disk full")
	}
	f.claims = append(f.claims, id+"/"+node)
	return nil
}

func (f *failingClaimLog) Released(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.releases = append(f.releases, id)
	return nil
}

// TestClaimNotGrantedWithoutJournal: if the fsync'd claim record cannot
// be written, the grant must not leave the coordinator — the job stays
// claimable and the next attempt (journal healthy again) succeeds.
func TestClaimNotGrantedWithoutJournal(t *testing.T) {
	logf := &failingClaimLog{failures: 1}
	coord := fleet.NewCoordinator(fleet.Config{Journal: logf})
	if err := coord.Register("a"); err != nil {
		t.Fatal(err)
	}
	go coord.Offer(context.Background(), fleet.Job{ID: "j1", Source: json.RawMessage(`{}`)}, problem.Run{})
	waitUntil(t, "j1 claimable", func() bool { return coord.Stats().Claimable == 1 })

	if g, err := coord.Claim("a"); err == nil || g != nil {
		t.Fatalf("unjournaled claim was granted: %v, %v", g, err)
	}
	if coord.Stats().Claimable != 1 {
		t.Fatal("job lost after journal failure")
	}
	g, err := coord.Claim("a")
	if err != nil || g == nil {
		t.Fatalf("retry claim: %v, %v", g, err)
	}
	logf.mu.Lock()
	defer logf.mu.Unlock()
	if len(logf.claims) != 1 || logf.claims[0] != "j1/a" {
		t.Fatalf("journal saw claims %v, want [j1/a]", logf.claims)
	}
}

// TestClaimRecordsDurable drives the real serve journal as the ClaimLog
// and proves claim/release records survive reopen: a restarted
// coordinator can account for every lease it granted.
func TestClaimRecordsDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, entries, err := serve.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh journal replayed %d entries", len(entries))
	}
	if err := j.Submitted("j1", "acme", time.Now(), "tsp", json.RawMessage(tspSource)); err != nil {
		t.Fatal(err)
	}

	clk := newFakeClock()
	coord := fleet.NewCoordinator(fleet.Config{Lease: time.Minute, Now: clk.Now, Journal: j})
	if err := coord.Register("node-a"); err != nil {
		t.Fatal(err)
	}
	go coord.Offer(context.Background(), fleet.Job{ID: "j1", Problem: "tsp", Tenant: "acme", Source: json.RawMessage(tspSource)}, problem.Run{})
	waitUntil(t, "j1 claimable", func() bool { return coord.Stats().Claimable == 1 })
	if g, err := coord.Claim("node-a"); err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, entries, err := serve.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ID != "j1" {
		t.Fatalf("replay: %+v", entries)
	}
	if entries[0].ClaimedBy != "node-a" || entries[0].ClaimExpires.IsZero() {
		t.Fatalf("claim record lost across reopen: %+v", entries[0])
	}

	// Second life: the lease lapses, the sweep releases the claim, and
	// the release survives the next reopen.
	coord2 := fleet.NewCoordinator(fleet.Config{Lease: time.Minute, Now: clk.Now, Journal: j2})
	if err := coord2.Register("node-b"); err != nil {
		t.Fatal(err)
	}
	go coord2.Offer(context.Background(), fleet.Job{ID: "j1", Problem: "tsp", Tenant: "acme", Source: json.RawMessage(tspSource)}, problem.Run{})
	waitUntil(t, "j1 claimable again", func() bool { return coord2.Stats().Claimable == 1 })
	if g, err := coord2.Claim("node-b"); err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	clk.Advance(2 * time.Minute)
	if n := coord2.Sweep(); n != 1 {
		t.Fatalf("sweep revoked %d, want 1", n)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, entries, err := serve.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(entries) != 1 || entries[0].ClaimedBy != "" {
		t.Fatalf("release record lost across reopen: %+v", entries)
	}
}

// TestHTTPTransport exercises the whole claim protocol over real
// sockets through the Client, including the status→sentinel mapping
// and the hostile checkpoint-name guard.
func TestHTTPTransport(t *testing.T) {
	clk := newFakeClock()
	coord := fleet.NewCoordinator(fleet.Config{Lease: time.Minute, Now: clk.Now})
	mux := http.NewServeMux()
	coord.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := &fleet.Client{BaseURL: srv.URL}

	if _, err := cl.Heartbeat("ghost"); !errors.Is(err, fleet.ErrUnknownNode) {
		t.Fatalf("heartbeat unknown over HTTP: got %v, want ErrUnknownNode", err)
	}
	if err := cl.Register("bad name"); err == nil || !strings.Contains(err.Error(), "invalid node name") {
		t.Fatalf("bad name over HTTP: got %v", err)
	}
	if err := cl.Register("w1"); err != nil {
		t.Fatal(err)
	}
	if g, err := cl.Claim("w1"); err != nil || g != nil {
		t.Fatalf("claim with empty queue: %v, %v", g, err)
	}

	ckptDir := t.TempDir()
	var mu sync.Mutex
	var events []problem.Progress
	var written []string
	run := problem.Run{
		Progress: func(ev problem.Progress) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
		OnCheckpointWrite: func(p string) {
			mu.Lock()
			written = append(written, p)
			mu.Unlock()
		},
	}
	done := make(chan *problem.Result, 1)
	go func() {
		res, _ := coord.Offer(context.Background(), fleet.Job{
			ID: "h1", Problem: "tsp", Tenant: "acme",
			Source: json.RawMessage(tspSource), CheckpointDir: ckptDir, CheckpointEvery: 2,
		}, run)
		done <- res
	}()
	waitUntil(t, "h1 claimable", func() bool { return coord.Stats().Claimable == 1 })

	g, err := cl.Claim("w1")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	if g.JobID != "h1" || g.Tenant != "acme" || g.CheckpointEvery != 2 || string(g.Source) != tspSource {
		t.Fatalf("grant did not round-trip: %+v", g)
	}

	ev := problem.Progress{Restart: 1, Level: 2, Iter: 3, Objective: 4.5}
	if err := cl.Progress("h1", "w1", g.Token, ev); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(events) != 1 || events[0] != ev {
		t.Fatalf("progress did not round-trip: %+v", events)
	}
	mu.Unlock()

	if err := cl.ShipCheckpoint("h1", "w1", g.Token, "../escape.ckpt", []byte("x")); err == nil {
		t.Fatal("path-escaping checkpoint name accepted")
	}
	if err := cl.ShipCheckpoint("h1", "w1", g.Token, "snap.ckpt", []byte("snapshot-bytes")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(ckptDir, "snap.ckpt"))
	if err != nil || string(data) != "snapshot-bytes" {
		t.Fatalf("shipped checkpoint on disk: %q, %v", data, err)
	}
	mu.Lock()
	if len(written) != 1 {
		t.Fatalf("OnCheckpointWrite fired %d times", len(written))
	}
	mu.Unlock()

	if err := cl.Complete("h1", "w1", g.Token+1, nil, ""); !errors.Is(err, fleet.ErrGone) {
		t.Fatalf("stale token over HTTP: got %v, want ErrGone", err)
	}
	wantRes := &problem.Result{Problem: "tsp", Instance: "fleet-test", N: 200, Objective: 7.25}
	if err := cl.Complete("h1", "w1", g.Token, wantRes, ""); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res == nil || mustJSON(t, res) != mustJSON(t, wantRes) {
		t.Fatalf("result did not round-trip: %+v", res)
	}
	if err := cl.Complete("h1", "w1", g.Token, wantRes, ""); !errors.Is(err, fleet.ErrGone) {
		t.Fatalf("double completion over HTTP: got %v, want ErrGone", err)
	}

	resp, err := http.Get(srv.URL + "/v1/fleet/nodes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats fleet.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 1 || len(stats.PerNode) != 1 || stats.PerNode[0].Node != "w1" || stats.PerNode[0].Completed != 1 {
		t.Fatalf("/v1/fleet/nodes = %+v", stats)
	}
}

// TestWorkerOverHTTP runs a real worker against a real HTTP coordinator
// end to end: register, claim, solve, ship, complete — and the result
// matches a local solve of the same task bit for bit even after its
// trip through JSON.
func TestWorkerOverHTTP(t *testing.T) {
	source := json.RawMessage(tspSource)
	task, err := buildTask(source)
	if err != nil {
		t.Fatal(err)
	}
	want, err := task.Solve(context.Background(), problem.Run{})
	if err != nil {
		t.Fatal(err)
	}

	coord := fleet.NewCoordinator(fleet.Config{Lease: time.Minute, Logf: t.Logf})
	mux := http.NewServeMux()
	coord.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := newWorker(t, "http-worker", &fleet.Client{BaseURL: srv.URL})
	startWorker(t, ctx, w)

	res, err := coord.Offer(ctx, fleet.Job{
		ID: "hw1", Problem: "tsp", Source: source,
		CheckpointDir: t.TempDir(), CheckpointEvery: 1,
	}, problem.Run{})
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, res) != mustJSON(t, want) {
		t.Fatal("HTTP worker result differs from local solve")
	}
	if w.Stats().Shipped == 0 {
		t.Fatal("worker shipped no checkpoints")
	}
}

// TestEmptyCompletionRejected: a completion carrying neither a result
// nor an error (a buggy worker, or any client POSTing {} to /result)
// must not settle the offer — pre-fix it settled with (nil, nil) and
// the scheduler dereferenced the nil result. The claim stays standing
// and a real completion still lands.
func TestEmptyCompletionRejected(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{})
	if err := coord.Register("a"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var res *problem.Result
	go func() {
		r, err := coord.Offer(context.Background(), fleet.Job{ID: "e1", Source: json.RawMessage(`{}`)}, problem.Run{})
		res = r
		done <- err
	}()
	waitUntil(t, "e1 claimable", func() bool { return coord.Stats().Claimable == 1 })
	g, err := coord.Claim("a")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}

	if err := coord.Complete("e1", "a", g.Token, nil, ""); !errors.Is(err, fleet.ErrBadCompletion) {
		t.Fatalf("empty completion: got %v, want ErrBadCompletion", err)
	}
	if s := coord.Stats(); s.Claimed != 1 {
		t.Fatalf("claim did not survive the rejected completion: %+v", s)
	}
	select {
	case err := <-done:
		t.Fatalf("offer settled by empty completion (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}

	if err := coord.Complete("e1", "a", g.Token, &problem.Result{Problem: "tsp", Objective: 9}, ""); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Objective != 9 {
		t.Fatalf("offer result = %+v", res)
	}
}

// TestHTTPEmptyCompletionRejected drives the same guard over the wire:
// POST /v1/fleet/jobs/{id}/result with {} is a 400, not a coordinator
// crash, even from a client that knows a live job ID and token.
func TestHTTPEmptyCompletionRejected(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{})
	mux := http.NewServeMux()
	coord.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := &fleet.Client{BaseURL: srv.URL}

	if err := cl.Register("w1"); err != nil {
		t.Fatal(err)
	}
	go coord.Offer(context.Background(), fleet.Job{ID: "e2", Source: json.RawMessage(`{}`)}, problem.Run{})
	waitUntil(t, "e2 claimable", func() bool { return coord.Stats().Claimable == 1 })
	g, err := cl.Claim("w1")
	if err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	err = cl.Complete("e2", "w1", g.Token, nil, "")
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("empty completion over HTTP: got %v, want a 400", err)
	}
	if s := coord.Stats(); s.Claimed != 1 {
		t.Fatalf("claim did not survive the rejected completion: %+v", s)
	}
}

// TestRoutesAuth: with a shared secret configured, every /v1/fleet/*
// route refuses calls without it — the claim protocol is not open to
// arbitrary network peers — and a client presenting the secret speaks
// the protocol unchanged.
func TestRoutesAuth(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{Auth: "s3cret"})
	mux := http.NewServeMux()
	coord.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, cl := range []*fleet.Client{
		{BaseURL: srv.URL},                // no secret
		{BaseURL: srv.URL, Auth: "guess"}, // wrong secret
	} {
		if err := cl.Register("w1"); err == nil || !strings.Contains(err.Error(), "401") {
			t.Fatalf("unauthorized register (auth=%q): got %v, want 401", cl.Auth, err)
		}
		if _, err := cl.Claim("w1"); err == nil || !strings.Contains(err.Error(), "401") {
			t.Fatalf("unauthorized claim (auth=%q): got %v, want 401", cl.Auth, err)
		}
		if err := cl.ShipCheckpoint("x", "w1", 1, "a.ckpt", []byte("b")); err == nil || !strings.Contains(err.Error(), "401") {
			t.Fatalf("unauthorized ship (auth=%q): got %v, want 401", cl.Auth, err)
		}
		if err := cl.Complete("x", "w1", 1, nil, "boom"); err == nil || !strings.Contains(err.Error(), "401") {
			t.Fatalf("unauthorized complete (auth=%q): got %v, want 401", cl.Auth, err)
		}
	}
	if resp, err := http.Get(srv.URL + "/v1/fleet/nodes"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("unauthorized stats: %d, want 401", resp.StatusCode)
		}
	}
	if coord.Stats().Nodes != 0 {
		t.Fatal("unauthorized register reached the coordinator")
	}

	good := &fleet.Client{BaseURL: srv.URL, Auth: "s3cret"}
	if err := good.Register("w1"); err != nil {
		t.Fatalf("authorized register: %v", err)
	}
	if coord.Stats().Nodes != 1 {
		t.Fatal("authorized register did not land")
	}
}

// TestStaleShipAfterReclaim: once a job is re-claimed, the previous
// holder's checkpoint ships are dropped (ErrGone) rather than landing
// on top of — and, by mtime, shadowing — the new claimant's snapshots.
func TestStaleShipAfterReclaim(t *testing.T) {
	clk := newFakeClock()
	coord := fleet.NewCoordinator(fleet.Config{Lease: 10 * time.Second, Now: clk.Now})
	for _, n := range []string{"a", "b"} {
		if err := coord.Register(n); err != nil {
			t.Fatal(err)
		}
	}
	ckptDir := t.TempDir()
	go coord.Offer(context.Background(), fleet.Job{ID: "s1", Source: json.RawMessage(`{}`), CheckpointDir: ckptDir}, problem.Run{})
	waitUntil(t, "s1 claimable", func() bool { return coord.Stats().Claimable == 1 })

	g1, err := coord.Claim("a")
	if err != nil || g1 == nil {
		t.Fatalf("claim: %v, %v", g1, err)
	}
	if err := coord.ShipCheckpoint("s1", "a", g1.Token, "snap.ckpt", []byte("from-a")); err != nil {
		t.Fatal(err)
	}

	clk.Advance(11 * time.Second)
	if n := coord.Sweep(); n != 1 {
		t.Fatalf("sweep revoked %d, want 1", n)
	}
	g2, err := coord.Claim("b")
	if err != nil || g2 == nil {
		t.Fatalf("re-claim: %v, %v", g2, err)
	}
	if string(g2.Checkpoint) != "from-a" {
		t.Fatalf("re-claim grant checkpoint = %q, want a's shipped snapshot", g2.Checkpoint)
	}

	if err := coord.ShipCheckpoint("s1", "b", g2.Token, "snap.ckpt", []byte("from-b")); err != nil {
		t.Fatal(err)
	}
	// A's late ship with the dead token must not overwrite b's snapshot.
	if err := coord.ShipCheckpoint("s1", "a", g1.Token, "snap.ckpt", []byte("stale")); !errors.Is(err, fleet.ErrGone) {
		t.Fatalf("stale ship: got %v, want ErrGone", err)
	}
	data, err := os.ReadFile(filepath.Join(ckptDir, "snap.ckpt"))
	if err != nil || string(data) != "from-b" {
		t.Fatalf("checkpoint on disk = %q, %v; want from-b", data, err)
	}
}

// TestReclaimVoidsPendingCancel: a node whose lease lapsed has the job
// queued as a cancel for its next heartbeat. If that same node claims
// the job again before heartbeating, the pending cancel belongs to the
// lost claim; delivering it would abort the new solve, and the node
// would settle the job as failed with its valid token.
func TestReclaimVoidsPendingCancel(t *testing.T) {
	clk := newFakeClock()
	coord := fleet.NewCoordinator(fleet.Config{Lease: 10 * time.Second, Now: clk.Now})
	if err := coord.Register("a"); err != nil {
		t.Fatal(err)
	}
	go coord.Offer(context.Background(), fleet.Job{ID: "r1", Source: json.RawMessage(`{}`), CheckpointDir: t.TempDir()}, problem.Run{})
	waitUntil(t, "r1 claimable", func() bool { return coord.Stats().Claimable == 1 })

	if g, err := coord.Claim("a"); err != nil || g == nil {
		t.Fatalf("claim: %v, %v", g, err)
	}
	clk.Advance(11 * time.Second)
	if n := coord.Sweep(); n != 1 {
		t.Fatalf("sweep revoked %d, want 1", n)
	}
	if g, err := coord.Claim("a"); err != nil || g == nil {
		t.Fatalf("re-claim: %v, %v", g, err)
	}
	cancels, err := coord.Heartbeat("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(cancels) != 0 {
		t.Fatalf("heartbeat after re-claim cancels %v; the lost claim's cancel must not reach the new one", cancels)
	}
}

// panicTask is a task whose solve panics on the worker.
type panicTask struct{ problem.Task }

func (panicTask) Solve(context.Context, problem.Run) (*problem.Result, error) {
	var m map[string]int
	m["boom"]++ // a nil-map write: a runtime panic, not a returned error
	return nil, nil
}

// TestWorkerPanicFailsJob: a solve that panics on a fleet worker
// settles that job as failed on the coordinator instead of killing the
// worker, which goes on to complete the next job.
func TestWorkerPanicFailsJob(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{Lease: time.Minute, Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Node:      "panicky",
		Transport: coord,
		BuildTask: func(source json.RawMessage) (problem.Task, error) {
			task, err := buildTask(source)
			if err == nil && strings.Contains(string(source), "boom") {
				task = panicTask{task}
			}
			return task, err
		},
		ScratchDir:     t.TempDir(),
		HeartbeatEvery: 5 * time.Millisecond,
		PollEvery:      2 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, ctx, w)
	boom := strings.Replace(tspSource, "fleet-test", "fleet-boom", 1)
	_, err = coord.Offer(ctx, fleet.Job{ID: "boom", Problem: "tsp", Source: json.RawMessage(boom)}, problem.Run{})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking job settled with %v, want the panic as its failure", err)
	}
	res, err := coord.Offer(ctx, fleet.Job{ID: "next", Problem: "tsp", Source: json.RawMessage(tspSource)}, problem.Run{})
	if err != nil || res == nil {
		t.Fatalf("job after the panic: %v, %v", res, err)
	}
	if s := w.Stats(); s.Failed != 1 || s.Completed != 1 {
		t.Fatalf("worker stats %+v, want one failed and one completed", s)
	}
}
