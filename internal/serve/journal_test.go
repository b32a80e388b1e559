package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cimsa"
	"cimsa/internal/problem"
	"cimsa/internal/problem/tspprob"
)

func openTestJournal(t *testing.T, path string) (*Journal, []JournalEntry) {
	t.Helper()
	j, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, entries
}

func TestJournalRoundTripAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, entries := openTestJournal(t, path)
	if len(entries) != 0 {
		t.Fatalf("fresh journal has %d entries", len(entries))
	}
	ts := time.Unix(5000, 0).UTC()
	for _, id := range []string{"a", "b", "c"} {
		if err := j.Submitted(id, "default", ts, "tsp", json.RawMessage(fmt.Sprintf(`{"job":%q}`, id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finished("b"); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, entries = openTestJournal(t, path)
	if len(entries) != 2 || entries[0].ID != "a" || entries[1].ID != "c" {
		t.Fatalf("replay returned %+v", entries)
	}
	if !entries[0].Submitted.Equal(ts) {
		t.Fatalf("submission time lost: %v", entries[0].Submitted)
	}
	if string(entries[1].Request) != `{"job":"c"}` {
		t.Fatalf("request body lost: %s", entries[1].Request)
	}
	// Compaction rewrote the file down to the two live records.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 {
		t.Fatalf("compacted journal has %d lines:\n%s", lines, data)
	}
}

func TestJournalIgnoresTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _ := openTestJournal(t, path)
	if err := j.Submitted("whole", "default", time.Unix(1, 0), "tsp", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// A crash mid-append leaves a torn trailing line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"submit","id":"to`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, entries := openTestJournal(t, path)
	if len(entries) != 1 || entries[0].ID != "whole" {
		t.Fatalf("torn tail corrupted replay: %+v", entries)
	}
}

// jobRequest is a journalable SubmitRequest body for a deterministic
// synthetic instance.
func jobRequest(t *testing.T, n int) json.RawMessage {
	t.Helper()
	req := SubmitRequest{
		Generate: &GenerateSpec{Name: "srv-ckpt", N: n, Seed: 3},
		Options:  OptionsSpec{PMax: 3, Seed: 9, SkipHardware: true},
	}
	data, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func waitTerminal(t *testing.T, job *Job) Status {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", job.ID)
	}
	return job.Status()
}

// TestSchedulerRetiresJournaledJobs: a terminal job's record leaves
// the journal, so the next boot has nothing to recover.
func TestSchedulerRetiresJournaledJobs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, _ := openTestJournal(t, path)
	s := NewScheduler(Config{
		Journal: j,
		Solve: func(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
			return &problem.Result{Problem: task.Problem(), Instance: task.Label(), N: task.Size()}, nil
		},
	})
	defer s.Shutdown(context.Background())
	in := cimsa.GenerateInstance("retire", 50, 1)
	job, err := s.Submit(Spec{Task: tspprob.New(in, cimsa.Options{SkipHardware: true}), Source: jobRequest(t, 50)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	j.Close()
	_, entries := openTestJournal(t, path)
	if len(entries) != 0 {
		t.Fatalf("finished job still live in journal: %+v", entries)
	}
}

// TestRetireLeavesNoCheckpointFiles runs many checkpointed tsp jobs
// through a journaled scheduler and then walks the state dir: every
// snapshot write must have finished before its solve returned, so
// retire's delete of the job's checkpoint directory is final — no
// .ckpt or .ckpt.tmp file survives and no directory is recreated.
func TestRetireLeavesNoCheckpointFiles(t *testing.T) {
	stateDir := t.TempDir()
	ckptRoot := filepath.Join(stateDir, "checkpoints")
	j, _ := openTestJournal(t, filepath.Join(stateDir, "journal.jsonl"))
	var late atomic.Int64
	s := NewScheduler(Config{
		Journal:         j,
		CheckpointDir:   ckptRoot,
		CheckpointEvery: 1,
		QueueDepth:      32,
		Logf:            t.Logf,
		Solve: func(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
			var returned atomic.Bool
			inner := run.OnCheckpointWrite
			run.OnCheckpointWrite = func(p string) {
				if returned.Load() {
					late.Add(1)
				}
				inner(p)
			}
			defer returned.Store(true)
			return task.Solve(ctx, run)
		},
	})
	defer s.Shutdown(context.Background())
	const jobs = 24
	var pending []*Job
	for i := 0; i < jobs; i++ {
		in := cimsa.GenerateInstance(fmt.Sprintf("retire-ckpt-%d", i), 200, uint64(i))
		job, err := s.Submit(Spec{
			Task:   tspprob.New(in, cimsa.Options{PMax: 3, Seed: uint64(i), SkipHardware: true}),
			Source: jobRequest(t, 200),
		})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, job)
	}
	for _, job := range pending {
		if st := waitTerminal(t, job); st.State != StateDone {
			t.Fatalf("job %s ended %s: %s", job.ID, st.State, st.Error)
		}
	}
	if s.Metrics.CheckpointsWritten.Load() == 0 {
		t.Fatal("no checkpoint was written; the test exercised nothing")
	}
	if n := late.Load(); n != 0 {
		t.Fatalf("%d checkpoint writes completed after their solve returned", n)
	}
	err := filepath.WalkDir(stateDir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if strings.HasSuffix(p, ".ckpt") || strings.HasSuffix(p, ".ckpt.tmp") {
			t.Errorf("checkpoint file survived its job: %s", p)
		}
		if d.IsDir() && filepath.Dir(p) == ckptRoot {
			t.Errorf("job checkpoint directory exists after settle: %s", p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// crashState fabricates what a killed server leaves on disk: a journal
// with one live job and (optionally) the checkpoint its solver flushed
// before dying — produced by genuinely interrupting a real solve.
func crashState(t *testing.T, stateDir, jobID string, n int, withCheckpoint bool) {
	t.Helper()
	j, _ := openTestJournal(t, filepath.Join(stateDir, "journal.jsonl"))
	if err := j.Submitted(jobID, "default", time.Unix(7000, 0), "tsp", jobRequest(t, n)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if !withCheckpoint {
		return
	}
	in := cimsa.GenerateInstance("srv-ckpt", n, 3)
	ctx, cancel := context.WithCancel(context.Background())
	events := 0
	_, err := cimsa.SolveContext(ctx, in, cimsa.Options{
		PMax: 3, Seed: 9, SkipHardware: true,
		Progress: func(cimsa.ProgressEvent) {
			events++
			if events == 3 {
				cancel()
			}
		},
		Checkpoint: cimsa.Checkpoint{Dir: filepath.Join(stateDir, "checkpoints", jobID)},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt: %v", err)
	}
}

func bootServer(t *testing.T, stateDir string) (*Server, *Scheduler, []JournalEntry) {
	t.Helper()
	j, entries := openTestJournal(t, filepath.Join(stateDir, "journal.jsonl"))
	s := NewScheduler(Config{
		Journal:       j,
		CheckpointDir: filepath.Join(stateDir, "checkpoints"),
		Logf:          t.Logf,
	})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return NewServer(s), s, entries
}

// TestRecoverResumesInterruptedJob is the cimserve crash story end to
// end: kill a server mid-solve, boot a new one on the same state dir,
// and the job finishes under its original ID with a result
// bit-identical to a never-interrupted run.
func TestRecoverResumesInterruptedJob(t *testing.T) {
	const n = 240
	in := cimsa.GenerateInstance("srv-ckpt", n, 3)
	want, err := cimsa.Solve(in, cimsa.Options{PMax: 3, Seed: 9, SkipHardware: true})
	if err != nil {
		t.Fatal(err)
	}

	stateDir := t.TempDir()
	crashState(t, stateDir, "j0001-dead00", n, true)
	srv, sched, entries := bootServer(t, stateDir)
	if got := srv.Recover(entries); got != 1 {
		t.Fatalf("Recover re-enqueued %d jobs", got)
	}
	job, ok := sched.Get("j0001-dead00")
	if !ok {
		t.Fatal("recovered job lost its ID")
	}
	st := waitTerminal(t, job)
	if st.State != StateDone {
		t.Fatalf("recovered job ended %s (%s)", st.State, st.Error)
	}
	rep := job.Result().Detail.(*cimsa.Report)
	if !reflect.DeepEqual(rep.Tour, want.Tour) || rep.Length != want.Length || rep.Solver != want.Solver {
		t.Fatal("recovered job's result differs from an uninterrupted run")
	}
	if sched.Metrics.Resumes.Load() != 1 {
		t.Fatalf("resumes_total = %d, want 1", sched.Metrics.Resumes.Load())
	}
	if sched.Metrics.Recovered.Load() != 1 {
		t.Fatalf("jobs_recovered_total = %d, want 1", sched.Metrics.Recovered.Load())
	}
	if sched.Metrics.CheckpointsWritten.Load() == 0 {
		t.Fatal("resumed solve wrote no further checkpoints")
	}
	// Terminal: the checkpoint directory is gone and the journal empty.
	if _, err := os.Stat(filepath.Join(stateDir, "checkpoints", "j0001-dead00")); !os.IsNotExist(err) {
		t.Fatalf("finished job's checkpoint dir survives: %v", err)
	}
}

// TestRecoverCorruptCheckpointSolvesFresh: a damaged checkpoint is
// rejected with a diagnostic and discarded; the job still completes,
// correctly, from scratch.
func TestRecoverCorruptCheckpointSolvesFresh(t *testing.T) {
	const n = 160
	in := cimsa.GenerateInstance("srv-ckpt", n, 3)
	want, err := cimsa.Solve(in, cimsa.Options{PMax: 3, Seed: 9, SkipHardware: true})
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	crashState(t, stateDir, "j0001-bad000", n, true)
	ckptDir := filepath.Join(stateDir, "checkpoints", "j0001-bad000")
	files, err := filepath.Glob(filepath.Join(ckptDir, "*.ckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint files: %v %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, sched, entries := bootServer(t, stateDir)
	if got := srv.Recover(entries); got != 1 {
		t.Fatalf("Recover re-enqueued %d jobs", got)
	}
	job, _ := sched.Get("j0001-bad000")
	st := waitTerminal(t, job)
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	if !reflect.DeepEqual(job.Result().Detail.(*cimsa.Report).Tour, want.Tour) {
		t.Fatal("fresh fallback solve produced a different result")
	}
	if sched.Metrics.ResumeFailures.Load() != 1 {
		t.Fatalf("resume_failures_total = %d, want 1", sched.Metrics.ResumeFailures.Load())
	}
}

// TestRecoverDropsUnbuildableEntry: a journal record that no longer
// parses is dropped once — retired from the journal, counted, not
// wedging every future boot.
func TestRecoverDropsUnbuildableEntry(t *testing.T) {
	stateDir := t.TempDir()
	path := filepath.Join(stateDir, "journal.jsonl")
	j, _ := openTestJournal(t, path)
	if err := j.Submitted("j0001-junk00", "", time.Unix(1, 0), "", json.RawMessage(`{"name":"no-such-instance-xyz"}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	srv, sched, entries := bootServer(t, stateDir)
	if len(entries) != 1 {
		t.Fatalf("expected 1 entry, got %d", len(entries))
	}
	if got := srv.Recover(entries); got != 0 {
		t.Fatalf("unbuildable entry recovered %d jobs", got)
	}
	if _, ok := sched.Get("j0001-junk00"); ok {
		t.Fatal("unbuildable job was enqueued")
	}
	if srv.recoveryFailures.Load() != 1 {
		t.Fatalf("recoveryFailures = %d", srv.recoveryFailures.Load())
	}
	// The drop is durable: the record is retired.
	sched.Shutdown(context.Background())
	_, entries = openTestJournal(t, path)
	if len(entries) != 0 {
		t.Fatalf("dropped entry still live: %+v", entries)
	}
}

// TestHealthzReportsRecovery: 503 while recovering, then 200 with the
// tallies.
func TestHealthzReportsRecovery(t *testing.T) {
	stateDir := t.TempDir()
	srv, _, _ := bootServer(t, stateDir)
	h := srv.Handler()

	srv.recovering.Store(true)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("recovering healthz = %d", rec.Code)
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["status"] != "recovering" {
		t.Fatalf("healthz body %v", resp)
	}

	srv.recovering.Store(false)
	srv.recovered.Store(3)
	srv.recoveryFailures.Store(1)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("ready healthz = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["status"] != "ok" || resp["jobs_recovered"] != float64(3) || resp["recovery_failures"] != float64(1) {
		t.Fatalf("healthz body %v", resp)
	}
}

// TestTinyTSPJobSolvesOnJournaledServer: a tsp job too small to
// cluster (a one-level hierarchy, solved exactly, hardware report on)
// reaches done on a journaled server, and the server keeps answering.
func TestTinyTSPJobSolvesOnJournaledServer(t *testing.T) {
	srv, _, _ := bootServer(t, t.TempDir())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"tsp":{"generate":{"name":"x","n":5,"seed":1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	st := decodeJSON[Status](t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	if final := pollState(t, ts.URL, st.ID, StateDone, 30*time.Second); final.N != 5 {
		t.Fatalf("final status %+v", final)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after tiny job = %d", resp.StatusCode)
	}
}

// farCityTSPBody is a 40-city EUC_2D tsplib submit body whose eighth
// city sits at x.
func farCityTSPBody(x string) string {
	var b strings.Builder
	b.WriteString("NAME : far\nTYPE : TSP\nDIMENSION : 40\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n")
	for i := 1; i <= 40; i++ {
		cx := fmt.Sprint(i % 8 * 10)
		if i == 8 {
			cx = x
		}
		fmt.Fprintf(&b, "%d %s %d\n", i, cx, i/8*10)
	}
	b.WriteString("EOF\n")
	body, err := json.Marshal(map[string]any{"tsp": map[string]any{"tsplib": b.String(), "options": map[string]any{"seed": 1}}})
	if err != nil {
		panic(err)
	}
	return string(body)
}

// nonFiniteTSPBodies place one city where a tour length overflows
// float64. Solving them used to panic the solve goroutine, and with it
// the server — again on every boot that replayed the journaled job.
var nonFiniteTSPBodies = []string{
	farCityTSPBody("1e308"), farCityTSPBody("-1e308"),
	farCityTSPBody("+Inf"), farCityTSPBody("-Inf"),
}

// TestNonFiniteTSPJobRejectedOnJournaledServer: on a journaled server a
// tsp job whose coordinates overflow a tour is a 400 at submit, a
// journal record of one left by an older server is dropped at recovery
// instead of solved, and a large but finite extent still solves.
func TestNonFiniteTSPJobRejectedOnJournaledServer(t *testing.T) {
	stateDir := t.TempDir()
	j, _ := openTestJournal(t, filepath.Join(stateDir, "journal.jsonl"))
	if err := j.Submitted("j0001-far000", "default", time.Unix(7000, 0), "tsp", json.RawMessage(nonFiniteTSPBodies[0])); err != nil {
		t.Fatal(err)
	}
	j.Close()
	srv, _, entries := bootServer(t, stateDir)
	if got := srv.Recover(entries); got != 0 {
		t.Fatalf("Recover re-enqueued %d non-finite jobs", got)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, body := range nonFiniteTSPBodies {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("non-finite submit = %d, want 400", resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(farCityTSPBody("1e200")))
	if err != nil {
		t.Fatal(err)
	}
	st := decodeJSON[Status](t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("1e200 submit = %d", resp.StatusCode)
	}
	if final := pollState(t, ts.URL, st.ID, StateDone, 30*time.Second); final.N != 40 {
		t.Fatalf("final status %+v", final)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestSubmitJournalsThroughHTTP: the HTTP submit path persists the
// request body, and the new checkpoint metrics appear on /metrics.
func TestSubmitJournalsThroughHTTP(t *testing.T) {
	stateDir := t.TempDir()
	path := filepath.Join(stateDir, "journal.jsonl")
	j, _ := openTestJournal(t, path)
	block := make(chan struct{})
	s := NewScheduler(Config{
		Journal: j,
		Solve: func(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
			<-block
			return &problem.Result{Problem: task.Problem(), Instance: task.Label(), N: task.Size()}, nil
		},
	})
	defer func() {
		close(block)
		s.Shutdown(context.Background())
	}()
	srv := NewServer(s)
	h := srv.Handler()

	rec := httptest.NewRecorder()
	body := `{"generate":{"name":"http-journal","n":60,"seed":2},"options":{"pmax":3,"skip_hardware":true}}`
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	entries, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ID != st.ID {
		t.Fatalf("journal entries %+v, want job %s", entries, st.ID)
	}
	var req SubmitRequest
	if err := json.Unmarshal(entries[0].Request, &req); err != nil {
		t.Fatalf("journaled request does not parse: %v", err)
	}
	if req.Generate == nil || req.Generate.N != 60 {
		t.Fatalf("journaled request lost the instance: %+v", req)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, metric := range []string{
		"cimserve_checkpoints_written_total",
		"cimserve_resumes_total",
		"cimserve_resume_failures_total",
		"cimserve_jobs_recovered_total",
	} {
		if !strings.Contains(rec.Body.String(), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}

// TestJournalMixedVersionReplay replays a journal whose lines span the
// service's whole history — a pre-multi-problem record (no problem
// field, legacy TSP schema), a pre-tenancy/pre-fabric record, a modern
// tenanted record with an explicit fabric, fleet claim/release records,
// and a torn trailing line — and requires every surviving entry to be
// recovered faithfully and to still build a runnable task.
func TestJournalMixedVersionReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	lines := []string{
		// v0: written before the multi-problem registry. No problem, no
		// tenant; the request body is the legacy TSP-only schema.
		`{"op":"submit","id":"v0","submitted":"2024-03-01T10:00:00Z","request":{"generate":{"name":"legacy","n":40,"seed":1},"options":{"pmax":2,"seed":1,"skip_hardware":true}}}`,
		// v1: multi-problem era, but before tenancy and before fabrics.
		`{"op":"submit","id":"v1","problem":"tsp","submitted":"2024-06-01T10:00:00Z","request":{"tsp":{"generate":{"name":"mid","n":40,"seed":2},"options":{"pmax":2,"seed":2,"skip_hardware":true}}}}`,
		// gone: a job that finished before the crash; "end" retires it.
		`{"op":"submit","id":"gone","problem":"tsp","submitted":"2024-06-02T10:00:00Z","request":{"generate":{"name":"gone","n":40,"seed":3},"options":{"pmax":2,"skip_hardware":true}}}`,
		`{"op":"end","id":"gone"}`,
		// v2: modern record — tenanted, explicit fabric selection.
		`{"op":"submit","id":"v2","problem":"tsp","tenant":"acme","submitted":"2026-08-01T10:00:00Z","request":{"tsp":{"generate":{"name":"modern","n":40,"seed":4},"options":{"pmax":2,"seed":4,"skip_hardware":true,"fabric":{"kind":"mram","seed":7}}}}}`,
		// Fleet era: v1 was claimed and released (lease expired), v2 holds
		// an outstanding claim. A claim for a retired job is ignored.
		`{"op":"claim","id":"v1","node":"w0","expires":"2026-08-01T10:01:00Z"}`,
		`{"op":"release","id":"v1"}`,
		`{"op":"claim","id":"v2","node":"w1","expires":"2026-08-01T10:02:00Z"}`,
		`{"op":"claim","id":"gone","node":"w1","expires":"2026-08-01T10:02:00Z"}`,
		// v3: written while a "parallel" switch sat next to Workers and
		// -1 was the auto sentinel; both now mean auto.
		`{"op":"submit","id":"v3","problem":"tsp","submitted":"2026-09-01T10:00:00Z","request":{"tsp":{"generate":{"name":"pool","n":40,"seed":5},"options":{"pmax":2,"seed":5,"skip_hardware":true,"parallel":true,"workers":-1}}}}`,
		// Torn trailing line: the crash hit mid-append.
		`{"op":"submit","id":"torn","probl`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, entries := openTestJournal(t, path)
	if len(entries) != 4 {
		t.Fatalf("replay returned %d entries (%+v), want 4", len(entries), entries)
	}
	byID := map[string]JournalEntry{}
	for _, e := range entries {
		byID[e.ID] = e
	}
	v0, v1, v2 := byID["v0"], byID["v1"], byID["v2"]
	if v0.Problem != "" || v0.Tenant != "" || v0.ClaimedBy != "" {
		t.Fatalf("pre-registry entry gained fields it never had: %+v", v0)
	}
	if v1.Problem != "tsp" || v1.Tenant != "" {
		t.Fatalf("pre-tenancy entry mangled: %+v", v1)
	}
	if v1.ClaimedBy != "" {
		t.Fatalf("released claim survived replay: %+v", v1)
	}
	if v2.Tenant != "acme" || v2.ClaimedBy != "w1" || v2.ClaimExpires.IsZero() {
		t.Fatalf("modern entry lost tenancy or its outstanding claim: %+v", v2)
	}
	if entries[0].ID != "v0" || entries[1].ID != "v1" || entries[2].ID != "v2" || entries[3].ID != "v3" {
		t.Fatalf("submission order lost: %v, %v, %v, %v", entries[0].ID, entries[1].ID, entries[2].ID, entries[3].ID)
	}

	// Every surviving generation must still build a runnable task
	// through the same path Recover uses.
	for _, e := range entries {
		var req SubmitRequest
		if err := json.Unmarshal(e.Request, &req); err != nil {
			t.Fatalf("entry %s: request no longer parses: %v", e.ID, err)
		}
		task, err := TaskFor(&req, problem.Limits{})
		if err != nil {
			t.Fatalf("entry %s: request no longer builds a task: %v", e.ID, err)
		}
		if task.Problem() != "tsp" {
			t.Fatalf("entry %s: rebuilt as %q", e.ID, task.Problem())
		}
		if err := task.Validate(); err != nil {
			t.Fatalf("entry %s: rebuilt options no longer validate: %v", e.ID, err)
		}
	}
}

// TestJournalCompactionPreservesOutstandingClaims: compaction must keep
// an unreleased claim record immediately behind its submit — and only
// unreleased ones — without losing or duplicating any job.
func TestJournalCompactionPreservesOutstandingClaims(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _ := openTestJournal(t, path)
	ts := time.Unix(9000, 0).UTC()
	exp := ts.Add(time.Minute)
	for _, id := range []string{"a", "b", "c"} {
		if err := j.Submitted(id, "default", ts, "tsp", json.RawMessage(fmt.Sprintf(`{"job":%q}`, id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Claimed("a", "node-1", exp); err != nil {
		t.Fatal(err)
	}
	if err := j.Claimed("b", "node-2", exp); err != nil {
		t.Fatal(err)
	}
	if err := j.Released("b"); err != nil {
		t.Fatal(err)
	}
	if err := j.Finished("c"); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// First reopen: compaction runs with a's claim outstanding.
	j2, entries := openTestJournal(t, path)
	if len(entries) != 2 || entries[0].ID != "a" || entries[1].ID != "b" {
		t.Fatalf("replay returned %+v", entries)
	}
	if entries[0].ClaimedBy != "node-1" || !entries[0].ClaimExpires.Equal(exp) {
		t.Fatalf("outstanding claim lost in compaction: %+v", entries[0])
	}
	if entries[1].ClaimedBy != "" {
		t.Fatalf("released claim resurrected by compaction: %+v", entries[1])
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(raw) != 3 {
		t.Fatalf("compacted journal has %d lines, want 3 (submit a, claim a, submit b):\n%s", len(raw), data)
	}
	type rec struct {
		Op   string `json:"op"`
		ID   string `json:"id"`
		Node string `json:"node"`
	}
	var ops []rec
	for _, line := range raw {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("compacted line %q: %v", line, err)
		}
		ops = append(ops, r)
	}
	want := []rec{{"submit", "a", ""}, {"claim", "a", "node-1"}, {"submit", "b", ""}}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("compacted records %+v, want %+v", ops, want)
	}
	j2.Close()

	// Second reopen: compacting a compacted journal is a fixed point.
	_, entries = openTestJournal(t, path)
	if len(entries) != 2 || entries[0].ClaimedBy != "node-1" || entries[1].ClaimedBy != "" {
		t.Fatalf("second compaction changed the entries: %+v", entries)
	}
}

// TestPanickingSolveFailsJob: a solve that panics fails its job instead
// of the server. The job settles as failed with the panic in its error,
// the stack goes to the log, the failure is counted, the next job still
// completes, and the failed job's journal record is retired, so a
// restart does not replay it.
func TestPanickingSolveFailsJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _ := openTestJournal(t, path)
	var calls atomic.Int64
	solve := func(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
		calls.Add(1)
		if task.Label() == "boom" {
			var m map[string]int
			m["boom"]++ // a nil-map write: a runtime panic, not a returned error
		}
		return &problem.Result{Problem: task.Problem(), Instance: task.Label(), N: task.Size()}, nil
	}
	var stackLogged atomic.Bool
	logf := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		if strings.Contains(msg, "solve panicked") && strings.Contains(msg, "goroutine") {
			stackLogged.Store(true)
		}
		t.Log(msg)
	}
	s := NewScheduler(Config{Journal: j, Solve: solve, Logf: logf})
	submit := func(name string) *Job {
		t.Helper()
		in := cimsa.GenerateInstance(name, 50, 1)
		job, err := s.Submit(Spec{Task: tspprob.New(in, cimsa.Options{SkipHardware: true}), Source: jobRequest(t, 50)})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	st := waitTerminal(t, submit("boom"))
	if st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("panicking job ended %s (%q), want failed with the panic", st.State, st.Error)
	}
	if !stackLogged.Load() {
		t.Fatal("the panic's stack was not logged")
	}
	if st := waitTerminal(t, submit("fine")); st.State != StateDone {
		t.Fatalf("job after the panic ended %s: %s", st.State, st.Error)
	}
	if got := s.Metrics.Failed.Load(); got != 1 {
		t.Fatalf("failed counter = %d, want 1", got)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, entries := openTestJournal(t, path)
	if len(entries) != 0 {
		t.Fatalf("journal still holds %d live jobs after the panic: %+v", len(entries), entries)
	}
	s2 := NewScheduler(Config{Journal: j2, Solve: solve, Logf: t.Logf})
	defer s2.Shutdown(context.Background())
	before := calls.Load()
	if got := NewServer(s2).Recover(entries); got != 0 || calls.Load() != before {
		t.Fatalf("restart re-ran %d jobs (%d solves)", got, calls.Load()-before)
	}
}

// TestPanickingCheckpointHookFailsJob: a panic in a checkpoint-write
// hook, which runs on the checkpoint writer's goroutine, fails its job
// with the writer's sticky error instead of ending the server. The next
// job still completes, and after a restart nothing is re-run and the
// failed job's checkpoint directory is gone.
func TestPanickingCheckpointHookFailsJob(t *testing.T) {
	stateDir := t.TempDir()
	path := filepath.Join(stateDir, "journal.jsonl")
	ckptRoot := filepath.Join(stateDir, "checkpoints")
	j, _ := openTestJournal(t, path)
	var calls atomic.Int64
	solve := func(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
		calls.Add(1)
		if task.Label() == "boom" {
			run.OnCheckpointWrite = func(string) { panic("checkpoint hook exploded") }
		}
		return task.Solve(ctx, run)
	}
	s := NewScheduler(Config{Journal: j, CheckpointDir: ckptRoot, CheckpointEvery: 1, Solve: solve, Logf: t.Logf})
	submit := func(name string) *Job {
		t.Helper()
		in := cimsa.GenerateInstance(name, 200, 1)
		job, err := s.Submit(Spec{Task: tspprob.New(in, cimsa.Options{PMax: 3, Seed: 9, SkipHardware: true}), Source: jobRequest(t, 200)})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	boom := submit("boom")
	st := waitTerminal(t, boom)
	if st.State != StateFailed || !strings.Contains(st.Error, "checkpoint: writer panicked: checkpoint hook exploded") {
		t.Fatalf("job with a panicking checkpoint hook ended %s (%q), want failed with the writer's error", st.State, st.Error)
	}
	if st := waitTerminal(t, submit("fine")); st.State != StateDone {
		t.Fatalf("job after the panic ended %s: %s", st.State, st.Error)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, entries := openTestJournal(t, path)
	s2 := NewScheduler(Config{Journal: j2, CheckpointDir: ckptRoot, Solve: solve, Logf: t.Logf})
	defer s2.Shutdown(context.Background())
	before := calls.Load()
	if got := NewServer(s2).Recover(entries); got != 0 || calls.Load() != before {
		t.Fatalf("restart re-ran %d jobs (%d solves)", got, calls.Load()-before)
	}
	if _, err := os.Stat(filepath.Join(ckptRoot, boom.ID)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("failed job's checkpoint directory survived (stat: %v)", err)
	}
}
