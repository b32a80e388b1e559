package serve

import (
	"encoding/json"
	"os"

	"cimsa/internal/problem"
)

// Recover rebuilds and re-enqueues the journal's live entries — jobs
// that were queued or running when the previous process died. Each
// entry's original request body is parsed through the same path as a
// fresh submission (the problem registry), so a journal can mix
// problem types — and records written before the multi-problem
// registry, which carry no problem field and use the TSP-only schema,
// replay through the same legacy route a live client would use. The
// job keeps its ID and submission time, and its checkpoint directory
// (if any) makes the solve resume mid-anneal, bit-identical to never
// having been interrupted.
//
// An entry that no longer builds (unparseable record, instance over
// the size limits, queue full) is dropped: logged, retired from the
// journal, its checkpoints removed — it will not wedge every future
// boot. Returns the number of jobs re-enqueued. /healthz serves 503
// until Recover returns.
func (s *Server) Recover(entries []JournalEntry) int {
	s.recovering.Store(true)
	defer s.recovering.Store(false)
	n := 0
	for _, e := range entries {
		var req SubmitRequest
		err := json.Unmarshal(e.Request, &req)
		var task problem.Task
		if err == nil {
			task, err = s.buildTask(&req)
		}
		if err == nil {
			// A pre-tenancy record carries no tenant; the empty string
			// canonicalizes to the default lane.
			_, err = s.sched.Resubmit(e.ID, e.Submitted, Spec{Tenant: e.Tenant, Task: task, Source: e.Request})
		}
		if err != nil {
			s.sched.cfg.Logf("recovery: dropping job %s: %v", e.ID, err)
			s.recoveryFailures.Add(1)
			if j := s.sched.cfg.Journal; j != nil {
				if ferr := j.Finished(e.ID); ferr != nil {
					s.sched.cfg.Logf("recovery: retiring job %s: %v", e.ID, ferr)
				}
			}
			if s.sched.cfg.CheckpointDir != "" {
				_ = os.RemoveAll(s.sched.jobCheckpointDir(e.ID))
			}
			continue
		}
		s.sched.Metrics.Recovered.Add(1)
		s.recovered.Add(1)
		n++
	}
	return n
}
