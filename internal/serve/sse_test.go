package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cimsa/internal/problem"
)

// scriptedProgressSolver emits a fixed number of progress events and
// then succeeds — enough events to overflow a small replay buffer.
func scriptedProgressSolver(events int) SolveFunc {
	return func(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
		for i := 1; i <= events; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if run.Progress != nil {
				run.Progress(problem.Progress{Levels: 1, Iters: events * 50, Iter: i * 50, Clusters: 3})
			}
		}
		return &problem.Result{Problem: task.Problem(), Instance: task.Label(), N: task.Size(), Objective: 7}, nil
	}
}

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	event string
	id    int // -1 when the frame carries no id line
	data  Event
}

// readSSEFrames parses a full (already-terminated) SSE body.
func readSSEFrames(t *testing.T, body *bufio.Scanner) []sseFrame {
	t.Helper()
	var frames []sseFrame
	cur := sseFrame{id: -1}
	flush := func() {
		if cur.event != "" {
			frames = append(frames, cur)
		}
		cur = sseFrame{id: -1}
	}
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			flush()
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.id = n
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
		}
	}
	if err := body.Err(); err != nil {
		t.Fatal(err)
	}
	flush()
	return frames
}

func getEvents(t *testing.T, url, lastEventID string) []sseFrame {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return readSSEFrames(t, sc)
}

// A finished job's stream replays history once; a reconnect presenting
// Last-Event-ID resumes after it instead of duplicating the buffer.
func TestSSEReconnectHonorsLastEventID(t *testing.T) {
	sched, base := newTestServer(t, Config{
		MaxConcurrent: 1, QueueDepth: 4, Solve: scriptedProgressSolver(6),
	})
	resp := postJSON(t, base+"/v1/jobs", SubmitRequest{
		Generate: &GenerateSpec{Name: "sse-reconnect", N: 10, Seed: 1},
	})
	st := decodeJSON[Status](t, resp)
	job, ok := sched.Get(st.ID)
	if !ok {
		t.Fatal("submitted job not found")
	}
	waitDone(t, job)

	// 6 progress events + 1 done = seqs 1..7.
	full := getEvents(t, base+"/v1/jobs/"+st.ID+"/events", "")
	if len(full) != 7 || full[0].id != 1 || full[6].event != "done" {
		t.Fatalf("full replay: %d frames (first id %d)", len(full), full[0].id)
	}

	// Reconnect having seen through seq 4: only 5..7 come back.
	tail := getEvents(t, base+"/v1/jobs/"+st.ID+"/events", "4")
	if len(tail) != 3 {
		t.Fatalf("reconnect replayed %d frames, want 3 (got %+v)", len(tail), tail)
	}
	for i, fr := range tail {
		if want := 5 + i; fr.id != want {
			t.Fatalf("reconnect frame %d has id %d, want %d — duplicated history", i, fr.id, want)
		}
	}

	// A client that saw everything gets an empty (already-closed) stream.
	if rest := getEvents(t, base+"/v1/jobs/"+st.ID+"/events", "7"); len(rest) != 0 {
		t.Fatalf("fully-caught-up reconnect replayed %d frames", len(rest))
	}
}

// Eviction is not silent: Status reports it, and a stream whose client
// missed evicted events opens with a "truncated" frame (no id) before
// resuming at the first retained seq.
func TestSSEEvictionSurfacedToClients(t *testing.T) {
	sched, base := newTestServer(t, Config{
		MaxConcurrent: 1, QueueDepth: 4, ReplayBuffer: 4,
		Solve: scriptedProgressSolver(10),
	})
	resp := postJSON(t, base+"/v1/jobs", SubmitRequest{
		Generate: &GenerateSpec{Name: "sse-evict", N: 10, Seed: 1},
	})
	st := decodeJSON[Status](t, resp)
	job, ok := sched.Get(st.ID)
	if !ok {
		t.Fatal("submitted job not found")
	}
	waitDone(t, job)

	// 11 events total, buffer 4 → seqs 1..7 evicted, 8..11 retained.
	final := decodeJSON[Status](t, mustGet(t, base+"/v1/jobs/"+st.ID))
	if final.EventsEvicted != 7 {
		t.Fatalf("status events_evicted = %d, want 7", final.EventsEvicted)
	}

	frames := getEvents(t, base+"/v1/jobs/"+st.ID+"/events", "")
	if len(frames) != 5 {
		t.Fatalf("stream had %d frames, want truncated + 4 retained", len(frames))
	}
	trunc := frames[0]
	if trunc.event != "truncated" || trunc.id != -1 {
		t.Fatalf("first frame %q (id %d), want id-less truncated", trunc.event, trunc.id)
	}
	if trunc.data.Evicted != 7 || trunc.data.FirstSeq != 8 {
		t.Fatalf("truncated frame data %+v, want evicted 7 first_seq 8", trunc.data)
	}
	for i, fr := range frames[1:] {
		if want := 8 + i; fr.id != want {
			t.Fatalf("frame %d id %d, want %d", i+1, fr.id, want)
		}
	}
	if frames[4].event != "done" {
		t.Fatalf("last frame %q, want done", frames[4].event)
	}

	// A reconnect that already saw past the eviction horizon gets no
	// truncated frame; one that did not still gets warned.
	if caught := getEvents(t, base+"/v1/jobs/"+st.ID+"/events", "9"); len(caught) != 2 || caught[0].event == "truncated" {
		t.Fatalf("caught-up reconnect frames %+v", caught)
	}
	behind := getEvents(t, base+"/v1/jobs/"+st.ID+"/events", "3")
	if len(behind) != 5 || behind[0].event != "truncated" {
		t.Fatalf("behind reconnect frames %+v, want truncated first", behind)
	}
}

// Cancel of a queued job is synchronous, so the 202 snapshot is already
// terminal; the asynchronous running case is covered by
// TestServiceCancellation.
func TestCancelQueuedReturns202WithFinalSnapshot(t *testing.T) {
	st := newStubSolver()
	sched, base := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 4, Solve: st.solve})
	t.Cleanup(st.releaseAll)

	first := decodeJSON[Status](t, postJSON(t, base+"/v1/jobs", SubmitRequest{
		Generate: &GenerateSpec{Name: "hold", N: 10, Seed: 1},
	}))
	waitStarted(t, st, "hold")
	queued := decodeJSON[Status](t, postJSON(t, base+"/v1/jobs", SubmitRequest{
		Generate: &GenerateSpec{Name: "queued", N: 10, Seed: 1},
	}))

	resp := postJSON(t, base+"/v1/jobs/"+queued.ID+"/cancel", struct{}{})
	snap := decodeJSON[Status](t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel returned %d, want 202", resp.StatusCode)
	}
	if snap.State != StateCanceled {
		t.Fatalf("queued cancel snapshot %s, want canceled", snap.State)
	}
	job, _ := sched.Get(queued.ID)
	select {
	case <-job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued job never finalized")
	}
	_ = first
}

// drainStream subscribes to a job and collects replay plus live events
// until the stream closes.
func drainStream(t *testing.T, job *Job) []Event {
	replay, _, ch, unsub := job.Subscribe()
	defer unsub()
	events := append([]Event(nil), replay...)
	timeout := time.After(5 * time.Second)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return events
			}
			events = append(events, ev)
		case <-timeout:
			t.Errorf("stream of %s never closed", job.ID)
			return events
		}
	}
}

// TestTerminalFrameSurvivesSubscribeRace races many subscribers against
// cache-hit and cancel-while-queued settlements (run it under -race).
// However a Subscribe interleaves with the settle, its stream must end
// with exactly one terminal event: a subscriber that sees the job
// terminal must find the terminal event in its replay.
func TestTerminalFrameSurvivesSubscribeRace(t *testing.T) {
	const rounds, subscribers = 100, 8
	check := func(job *Job, want string) {
		var wg sync.WaitGroup
		for k := 0; k < subscribers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				events := drainStream(t, job)
				terminals := 0
				for _, ev := range events {
					if ev.Type == "done" || ev.Type == "failed" || ev.Type == "canceled" {
						terminals++
					}
				}
				if terminals != 1 || events[len(events)-1].Type != want {
					t.Errorf("job %s: stream %+v, want exactly one terminal %q, last", job.ID, events, want)
				}
			}()
		}
		wg.Wait()
	}

	// Cache hits: every repeat of "hot" settles on dispatch.
	g := newGateSolver()
	hits := newGateScheduler(t, g, Config{MaxConcurrent: 2, QueueDepth: 8, CacheEntries: 4})
	g.finish("hot")
	seed, err := hits.Submit(Spec{Task: testTask(t, "hot")})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, seed)

	// Cancels: the only slot is pinned, so every submission stays queued
	// until its cancel settles it.
	pinSolver := newGateSolver()
	cancels := newGateScheduler(t, pinSolver, Config{MaxConcurrent: 1, QueueDepth: 8})
	if _, err := cancels.Submit(Spec{Task: testTask(t, "pin")}); err != nil {
		t.Fatal(err)
	}
	<-pinSolver.started

	for r := 0; r < rounds; r++ {
		hit, err := hits.Submit(Spec{Task: testTask(t, "hot")})
		if err != nil {
			t.Fatal(err)
		}
		check(hit, "done")

		victim, err := cancels.Submit(Spec{Task: testTask(t, "victim")})
		if err != nil {
			t.Fatal(err)
		}
		go cancels.Cancel(victim.ID)
		check(victim, "canceled")
	}
	if got := hits.Metrics.CacheHits.Load(); got != rounds {
		t.Fatalf("cache hits = %d, want %d", got, rounds)
	}
}
