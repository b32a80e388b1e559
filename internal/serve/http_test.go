package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cimsa"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func pollState(t *testing.T, base, id string, want State, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeJSON[Status](t, resp)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s ended %s (err %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func newTestServer(t *testing.T, cfg Config) (*Scheduler, string) {
	t.Helper()
	sched := NewScheduler(cfg)
	srv := httptest.NewServer(NewServer(sched).Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
	})
	return sched, srv.URL
}

// The acceptance path end to end: submit a generated 1k-city job over
// HTTP, observe SSE progress events, and fetch a result bit-identical
// to a direct cimsa.Solve with the same instance and options.
func TestServiceEndToEnd(t *testing.T) {
	opts := cimsa.Options{PMax: 3, Seed: 7, SkipHardware: true, Workers: 2}
	direct, err := cimsa.Solve(cimsa.GenerateInstance("e2e1k", 1000, 42), opts)
	if err != nil {
		t.Fatal(err)
	}

	_, base := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 8})
	resp := postJSON(t, base+"/v1/jobs", SubmitRequest{
		Generate: &GenerateSpec{Name: "e2e1k", N: 1000, Seed: 42},
		Options:  OptionsSpec{PMax: 3, Seed: 7, SkipHardware: true, Workers: 2},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	st := decodeJSON[Status](t, resp)
	if st.ID == "" || st.N != 1000 {
		t.Fatalf("submit status %+v", st)
	}

	final := pollState(t, base, st.ID, StateDone, 2*time.Minute)
	if final.Length != direct.Length {
		t.Fatalf("service length %v != direct solve length %v", final.Length, direct.Length)
	}

	// The SSE stream of a finished job replays its history and ends.
	evResp, err := http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var progress, done int
	sc := bufio.NewScanner(evResp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		switch {
		case sc.Text() == "event: progress":
			progress++
		case sc.Text() == "event: done":
			done++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if progress < 1 || done != 1 {
		t.Fatalf("SSE stream had %d progress / %d done events", progress, done)
	}

	// The full result matches the direct solve bit for bit. The report
	// payload is the TSP adapter's *cimsa.Report, byte-compatible with
	// the pre-registry wire format.
	type tspResult struct {
		Status
		Report *cimsa.Report `json:"report"`
	}
	res := decodeJSON[tspResult](t, mustGet(t, base+"/v1/jobs/"+st.ID+"/result"))
	if res.Report == nil || res.Report.Length != direct.Length {
		t.Fatalf("result report missing or wrong length")
	}
	if len(res.Report.Tour) != len(direct.Tour) {
		t.Fatalf("tour lengths differ: %d vs %d", len(res.Report.Tour), len(direct.Tour))
	}
	for i := range direct.Tour {
		if res.Report.Tour[i] != direct.Tour[i] {
			t.Fatalf("tours diverge at position %d", i)
		}
	}

	metrics := readBody(t, mustGet(t, base+"/metrics"))
	for _, want := range []string{
		"cimserve_jobs_done_total 1",
		"cimserve_jobs_submitted_total 1",
		"cimserve_solve_iterations_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// Cancellation over HTTP: a long multi-restart job is cancelled after
// its first live SSE progress event, finishes as canceled well before
// the full solve could, and frees its slot for the next job.
func TestServiceCancellation(t *testing.T) {
	_, base := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 8})
	// 1000 restarts of a 2k-city instance is many minutes of work; the
	// test cancels within the first restart.
	resp := postJSON(t, base+"/v1/jobs", SubmitRequest{
		Generate: &GenerateSpec{Name: "cancel2k", N: 2000, Seed: 5},
		Options:  OptionsSpec{Seed: 1, Restarts: 1000, SkipHardware: true},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	st := decodeJSON[Status](t, resp)

	// Stream live events; cancel at the first progress frame.
	evResp, err := http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	sc := bufio.NewScanner(evResp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	sawProgress := false
	for sc.Scan() {
		if sc.Text() == "event: progress" {
			sawProgress = true
			break
		}
	}
	if !sawProgress {
		t.Fatalf("no live progress event before stream end (read err %v)", sc.Err())
	}
	cancelAt := time.Now()
	cancelResp := postJSON(t, base+"/v1/jobs/"+st.ID+"/cancel", struct{}{})
	// Cancellation of a running job is asynchronous: 202 Accepted with a
	// snapshot that may legitimately still say "running".
	snap := decodeJSON[Status](t, cancelResp)
	if cancelResp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel returned %d, want 202", cancelResp.StatusCode)
	}
	if snap.State != StateRunning && snap.State != StateCanceled {
		t.Fatalf("cancel snapshot state %s, want running or canceled", snap.State)
	}

	final := pollState(t, base, st.ID, StateCanceled, 30*time.Second)
	if elapsed := time.Since(cancelAt); elapsed > 15*time.Second {
		t.Fatalf("cancellation took %v to land", elapsed)
	}
	if final.Finished == nil {
		t.Fatal("canceled job has no finish time")
	}

	// The canceled stream must end with a canceled event.
	sawCanceled := false
	for sc.Scan() {
		if sc.Text() == "event: canceled" {
			sawCanceled = true
		}
	}
	if !sawCanceled {
		t.Fatal("SSE stream did not deliver the canceled event")
	}

	// The slot is free again: a small follow-up job completes.
	resp = postJSON(t, base+"/v1/jobs", SubmitRequest{
		Generate: &GenerateSpec{Name: "after-cancel", N: 200, Seed: 1},
		Options:  OptionsSpec{SkipHardware: true},
	})
	next := decodeJSON[Status](t, resp)
	pollState(t, base, next.ID, StateDone, time.Minute)
}

// HTTP error mapping: 400 for bad requests, 404 for unknown jobs, 429
// with Retry-After under backpressure.
func TestServiceErrorMapping(t *testing.T) {
	st := newStubSolver()
	sched, base := newTestServer(t, Config{
		MaxConcurrent: 1, QueueDepth: 1, Solve: st.solve,
	})
	// Registered after newTestServer so it runs first (LIFO) and the
	// scheduler's shutdown does not wait on a still-blocked stub.
	t.Cleanup(st.releaseAll)
	srv := NewServer(sched)
	srv.Limits.MaxCities = 500
	limited := httptest.NewServer(srv.Handler())
	t.Cleanup(limited.Close)

	badBodies := []string{
		`{`,                                  // malformed JSON
		`{"options":{}}`,                     // no instance source
		`{"name":"pcb442","tsplib":"x"}`,     // two sources
		`{"name":"no-such-instance"}`,        // unknown registry name
		`{"generate":{"n":2}}`,               // too small to solve
		`{"tsplib":"TYPE : TSP\ngarbage\n"}`, // unparseable TSPLIB
		`{"generate":{"n":100},"options":{"pmax":77}}`,    // invalid options
		`{"generate":{"n":100},"options":{"mode":"x"}}`,   // unknown mode
		`{"generate":{"n":100},"options":{"workers":-2}}`, // negative workers (-1 is legacy auto)
	}
	for _, body := range badBodies {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s returned %d, want 400", body, resp.StatusCode)
		}
	}

	// workers:-1 is the legacy auto sentinel, not an invalid count: it
	// must map to 0 (auto) and validate clean.
	autoOpts := OptionsSpec{Workers: -1}.ToOptions()
	if autoOpts.Workers != 0 {
		t.Errorf("OptionsSpec{Workers: -1} mapped to %d, want 0 (auto)", autoOpts.Workers)
	}
	if err := autoOpts.Validate(); err != nil {
		t.Errorf("workers:-1 (auto) rejected by validation: %v", err)
	}

	// The per-server MaxN cap applies to generated sizes.
	resp, err := http.Post(limited.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"generate":{"n":600}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-MaxN submission returned %d, want 400", resp.StatusCode)
	}

	// Unknown job IDs 404 on every job route.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/jobs/nope"},
		{"GET", "/v1/jobs/nope/events"},
		{"GET", "/v1/jobs/nope/result"},
		{"POST", "/v1/jobs/nope/cancel"},
	} {
		req, _ := http.NewRequest(probe.method, base+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s returned %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}

	// Fill the slot and the queue, then expect 429 + Retry-After.
	submit := func() *http.Response {
		return postJSON(t, base+"/v1/jobs", SubmitRequest{
			Generate: &GenerateSpec{Name: "fill", N: 10, Seed: 1},
		})
	}
	first := decodeJSON[Status](t, submit())
	waitStarted(t, st, "fill")
	submit().Body.Close() // occupies the single queue position
	overflow := submit()
	defer overflow.Body.Close()
	if overflow.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission returned %d, want 429", overflow.StatusCode)
	}
	if overflow.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// A result fetched before completion is a 409 conflict.
	res, err := http.Get(base + "/v1/jobs/" + first.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("early result fetch returned %d, want 409", res.StatusCode)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s returned %d", url, resp.StatusCode)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
