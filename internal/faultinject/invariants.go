package faultinject

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"cimsa/internal/serve"
)

// ledger is one counter set's worth of job counts: the harness's
// ground truth, or a snapshot of serve.Counters to compare against it.
type ledger struct {
	submitted, rejected, queued, running, done, failed, canceled int64
}

func snapshot(c *serve.Counters) ledger {
	return ledger{
		c.Submitted.Load(), c.Rejected.Load(), c.Queued.Load(), c.Running.Load(),
		c.Done.Load(), c.Failed.Load(), c.Canceled.Load(),
	}
}

// conserve asserts the conservation identity on one counter set,
//
//	Queued + Running + Done + Failed + Canceled == Submitted,
//
// and returns Submitted.
func (l *opLog) conserve(what string, c *serve.Counters) int64 {
	l.t.Helper()
	s := snapshot(c)
	if sum := s.queued + s.running + s.done + s.failed + s.canceled; sum != s.submitted {
		l.fatalf("conservation[%s] identity broken: buckets sum to %d, submitted %d", what, sum, s.submitted)
	}
	return s.submitted
}

// conservePartition runs the identity on every labeled slice and
// asserts the slices' submitted counts partition the global total.
func (l *opLog) conservePartition(label string, names []string, slice func(string) *serve.Counters, global *serve.Counters) {
	l.t.Helper()
	var sum int64
	for _, name := range names {
		sum += l.conserve(label+" "+name, slice(name))
	}
	if g := global.Submitted.Load(); sum != g {
		l.fatalf("per-%s submitted counts sum to %d, global submitted %d", label, sum, g)
	}
}

// sameResult compares two results through a canonicalizing JSON
// round-trip: typed structs and wire-decoded maps land in the same
// shape, and float64 survives JSON exactly, so DeepEqual means the
// numbers match to the last bit. Neither cimsa.Report nor
// problem.Result carries timing, so whole results compare.
func sameResult(t *testing.T, got, want any) bool {
	t.Helper()
	canon := func(v any) any {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var x any
		if err := json.Unmarshal(data, &x); err != nil {
			t.Fatal(err)
		}
		return x
	}
	return reflect.DeepEqual(canon(got), canon(want))
}

// tally buckets the harness's ground truth by key.
func (h *Harness) tally(key func(*trackedJob) string) map[string]*ledger {
	h.t.Helper()
	per := map[string]*ledger{}
	for _, tj := range h.jobs {
		b := per[key(tj)]
		if b == nil {
			b = &ledger{}
			per[key(tj)] = b
		}
		b.submitted++
		switch tj.phase {
		case phaseQueued:
			b.queued++
		case phaseRunning:
			b.running++
		case phaseTerminal:
			switch st := tj.job.Status().State; st {
			case serve.StateDone:
				b.done++
			case serve.StateFailed:
				b.failed++
			case serve.StateCanceled:
				b.canceled++
			default:
				h.fatalf("terminal job %s reports non-terminal state %s", tj.name, st)
			}
		}
	}
	return per
}

// checkConservation asserts, at a quiescent point, that the metrics
// balance exactly against the harness's ground truth: every admitted
// job is in exactly one gauge or terminal counter, rejections match,
// and the conservation identity holds to the last job — globally and
// on each labeled slice (per problem type, per tenant). With mixed,
// multi-tenant traffic through one fair scheduler, every slice must
// balance against the ground truth for its label alone, including its
// rejections, which quotas and rate limits produce per tenant (a
// problem slice never counts one), and the slices' submitted counts
// must partition the global total.
func (h *Harness) checkConservation() {
	h.t.Helper()
	m := &h.sched.Metrics
	h.checkLabeled("global", func(*trackedJob) string { return "all" }, func(string) *serve.Counters { return &m.Counters }, map[string]int{"all": h.rejected})
	h.checkLabeled("problem", func(tj *trackedJob) string { return tj.problem }, m.Problem, nil)
	h.checkLabeled("tenant", func(tj *trackedJob) string { return tj.tenant }, m.Tenant, h.tenantRejected)
}

func (h *Harness) checkLabeled(label string, key func(*trackedJob) string, slice func(string) *serve.Counters, rejected map[string]int) {
	h.t.Helper()
	per := h.tally(key)
	// A label that only ever got rejected still has a metrics slice.
	for name, n := range rejected {
		if per[name] == nil {
			per[name] = &ledger{}
		}
		per[name].rejected = int64(n)
	}
	names := make([]string, 0, len(per))
	for name, want := range per {
		if got := snapshot(slice(name)); got != *want {
			h.fatalf("conservation[%s %s]: counters %+v, harness ground truth %+v", label, name, got, *want)
		}
		names = append(names, name)
	}
	h.conservePartition(label, names, slice, &h.sched.Metrics.Counters)
}

// checkStatusSanity asserts each tracked job's externally visible state
// matches the harness's phase, and that TTL sweeps and the job index
// agree about which jobs are still fetchable.
func (h *Harness) checkStatusSanity() {
	h.t.Helper()
	for _, tj := range h.jobs {
		st := tj.job.Status()
		switch tj.phase {
		case phaseQueued:
			if st.State != serve.StateQueued {
				h.fatalf("job %s phase queued but state %s", tj.name, st.State)
			}
		case phaseRunning:
			if st.State != serve.StateRunning {
				h.fatalf("job %s phase running but state %s", tj.name, st.State)
			}
		case phaseTerminal:
			if !st.State.Terminal() {
				h.fatalf("job %s phase terminal but state %s", tj.name, st.State)
			}
		case phaseFinishing:
			h.fatalf("job %s still finishing at a quiescent point", tj.name)
		}
		if _, ok := h.sched.Get(tj.job.ID); ok == tj.swept {
			h.fatalf("job %s sweep bookkeeping: swept=%v but Get found=%v", tj.name, tj.swept, ok)
		}
	}
}

// terminalEvent reports whether an event type ends a stream.
func terminalEvent(typ string) bool {
	return typ == "done" || typ == "failed" || typ == "canceled"
}

// AuditTerminalStream subscribes to a terminal job with a fresh
// subscriber and asserts the full stream contract: the channel is
// already closed, Status agrees with Subscribe about eviction, the
// replay covers every non-evicted seq contiguously, and exactly one
// terminal event exists — last, matching the job's state, and carrying
// the right payload (a length for done, an error for failed).
func AuditTerminalStream(t *testing.T, seed uint64, job *serve.Job) {
	t.Helper()
	st := job.Status()
	if !st.State.Terminal() {
		t.Fatalf("[seed %d] audit of %s: state %s is not terminal", seed, job.ID, st.State)
	}
	replay, evicted, ch, _ := job.Subscribe()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatalf("[seed %d] audit of %s: live event on a terminal job's stream", seed, job.ID)
		}
	case <-time.After(time.Second):
		t.Fatalf("[seed %d] audit of %s: post-terminal subscription channel not closed", seed, job.ID)
	}
	if st.EventsEvicted != evicted {
		t.Fatalf("[seed %d] audit of %s: Status.EventsEvicted %d != Subscribe evicted %d",
			seed, job.ID, st.EventsEvicted, evicted)
	}
	if len(replay) == 0 {
		t.Fatalf("[seed %d] audit of %s: terminal job with empty replay", seed, job.ID)
	}
	auditEventRun(t, seed, job.ID, replay, evicted, st.State)
}

// auditEventRun checks one contiguous event history: seqs evicted+1
// onward with no gaps, exactly one terminal event, in last position,
// consistent with the job's terminal state (empty for non-terminal).
func auditEventRun(t *testing.T, seed uint64, id string, events []serve.Event, evicted int, state serve.State) {
	t.Helper()
	terminals := 0
	for i, ev := range events {
		if want := evicted + 1 + i; ev.Seq != want {
			t.Fatalf("[seed %d] stream %s: event %d has seq %d, want %d (gap or duplicate)",
				seed, id, i, ev.Seq, want)
		}
		if terminalEvent(ev.Type) {
			terminals++
			if i != len(events)-1 {
				t.Fatalf("[seed %d] stream %s: terminal event %q at position %d of %d",
					seed, id, ev.Type, i, len(events))
			}
		}
	}
	if !state.Terminal() {
		if terminals != 0 {
			t.Fatalf("[seed %d] stream %s: terminal event on non-terminal job", seed, id)
		}
		return
	}
	if terminals != 1 {
		t.Fatalf("[seed %d] stream %s: %d terminal events, want exactly 1", seed, id, terminals)
	}
	last := events[len(events)-1]
	want := map[serve.State]string{
		serve.StateDone: "done", serve.StateFailed: "failed", serve.StateCanceled: "canceled",
	}[state]
	if last.Type != want {
		t.Fatalf("[seed %d] stream %s: terminal event %q but job state %s", seed, id, last.Type, state)
	}
	switch last.Type {
	case "done":
		if last.Length <= 0 {
			t.Fatalf("[seed %d] stream %s: done event with no tour length", seed, id)
		}
	case "failed":
		if last.Error == "" {
			t.Fatalf("[seed %d] stream %s: failed event with no error", seed, id)
		}
	}
}

// StreamAuditor is a well-behaved live subscriber: it drains promptly
// (so no events are ever dropped on its buffered channel) and records
// replay + live into one history checked at the end of the run.
type StreamAuditor struct {
	name    string
	jobID   string
	job     *serve.Job
	evicted int
	events  []serve.Event
	done    chan struct{}
}

// attachAuditor subscribes an auditor to a job and starts its drain
// goroutine. Only the goroutine touches events/evicted until done
// closes, so Check (which waits on done) reads them race-free.
func (h *Harness) attachAuditor(tj *trackedJob) {
	replay, evicted, ch, _ := tj.job.Subscribe()
	a := &StreamAuditor{
		name: tj.name, jobID: tj.job.ID, job: tj.job,
		evicted: evicted,
		events:  append([]serve.Event(nil), replay...),
		done:    make(chan struct{}),
	}
	go func() {
		for ev := range ch {
			a.events = append(a.events, ev)
		}
		close(a.done)
	}()
	h.auditors = append(h.auditors, a)
	h.logf("subscribe auditor -> %s", tj.name)
}

// Check waits for the stream to terminate and validates the merged
// replay+live history: contiguous coverage of every seq the subscriber
// was entitled to see, one terminal event, consistent with the job.
func (a *StreamAuditor) Check(t *testing.T, seed uint64) {
	t.Helper()
	select {
	case <-a.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("[seed %d] auditor on %s: stream never terminated", seed, a.name)
	}
	auditEventRun(t, seed, a.jobID, a.events, a.evicted, a.job.Status().State)
}
