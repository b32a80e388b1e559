package faultinject

import (
	"testing"
	"time"

	"cimsa/internal/serve"
)

// checkConservation asserts, at a quiescent point, that the metrics
// balance exactly against the harness's ground truth: every admitted
// job is in exactly one gauge or terminal counter, rejections match,
// and the global conservation identity
//
//	Queued + Running + Done + Failed + Canceled == Submitted
//
// holds to the last job.
func (h *Harness) checkConservation() {
	h.t.Helper()
	queued, running := h.countPhases()
	var done, failed, canceled int
	for _, tj := range h.jobs {
		if tj.phase != phaseTerminal {
			continue
		}
		switch st := tj.job.Status().State; st {
		case serve.StateDone:
			done++
		case serve.StateFailed:
			failed++
		case serve.StateCanceled:
			canceled++
		default:
			h.fatalf("terminal job %s reports non-terminal state %s", tj.name, st)
		}
	}
	m := &h.sched.Metrics
	check := func(name string, got int64, want int) {
		h.t.Helper()
		if got != int64(want) {
			h.fatalf("conservation: %s gauge/counter = %d, harness ground truth = %d", name, got, want)
		}
	}
	check("submitted", m.Submitted.Load(), len(h.jobs))
	check("rejected", m.Rejected.Load(), h.rejected)
	check("queued", m.Queued.Load(), queued)
	check("running", m.Running.Load(), running)
	check("done", m.Done.Load(), done)
	check("failed", m.Failed.Load(), failed)
	check("canceled", m.Canceled.Load(), canceled)
	if sum := m.Queued.Load() + m.Running.Load() + m.Done.Load() + m.Failed.Load() + m.Canceled.Load(); sum != m.Submitted.Load() {
		h.fatalf("conservation identity broken: buckets sum to %d, submitted %d", sum, m.Submitted.Load())
	}
	h.checkLabeledConservation("problem", func(tj *trackedJob) string { return tj.problem }, m.Problem, nil)
	h.checkLabeledConservation("tenant", func(tj *trackedJob) string { return tj.tenant }, m.Tenant, h.tenantRejected)
}

// checkLabeledConservation re-runs the conservation identity on each
// labeled metrics slice (per problem type, per tenant): with mixed,
// multi-tenant traffic through one fair scheduler, every slice must
// balance against the harness's ground truth for its label alone —
// including its rejections, which quotas and rate limits produce per
// tenant (rejected maps label to count; a problem slice never counts
// one) — and the slices' submitted counts must partition the global
// total.
func (h *Harness) checkLabeledConservation(label string, key func(*trackedJob) string, slice func(string) *serve.Counters, rejected map[string]int) {
	h.t.Helper()
	type bucket struct {
		submitted, queued, running, done, failed, canceled int
	}
	per := map[string]*bucket{}
	// A label that only ever got rejected still has a metrics slice.
	for name := range rejected {
		per[name] = &bucket{}
	}
	for _, tj := range h.jobs {
		b := per[key(tj)]
		if b == nil {
			b = &bucket{}
			per[key(tj)] = b
		}
		b.submitted++
		switch tj.phase {
		case phaseQueued:
			b.queued++
		case phaseRunning:
			b.running++
		case phaseTerminal:
			switch tj.job.Status().State {
			case serve.StateDone:
				b.done++
			case serve.StateFailed:
				b.failed++
			case serve.StateCanceled:
				b.canceled++
			}
		}
	}
	var partition int64
	for name, b := range per {
		c := slice(name)
		check := func(counter string, got int64, want int) {
			h.t.Helper()
			if got != int64(want) {
				h.fatalf("conservation[%s %s]: %s = %d, harness ground truth = %d", label, name, counter, got, want)
			}
		}
		check("submitted", c.Submitted.Load(), b.submitted)
		check("rejected", c.Rejected.Load(), rejected[name])
		check("queued", c.Queued.Load(), b.queued)
		check("running", c.Running.Load(), b.running)
		check("done", c.Done.Load(), b.done)
		check("failed", c.Failed.Load(), b.failed)
		check("canceled", c.Canceled.Load(), b.canceled)
		sum := c.Queued.Load() + c.Running.Load() + c.Done.Load() + c.Failed.Load() + c.Canceled.Load()
		if sum != c.Submitted.Load() {
			h.fatalf("conservation[%s %s] identity broken: buckets sum to %d, submitted %d", label, name, sum, c.Submitted.Load())
		}
		partition += c.Submitted.Load()
	}
	if global := h.sched.Metrics.Submitted.Load(); partition != global {
		h.fatalf("per-%s submitted counts sum to %d, global submitted %d", label, partition, global)
	}
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
