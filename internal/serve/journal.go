package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cimsa/internal/checkpoint"
)

// Journal durably records job submissions so a restarted server can
// re-enqueue the work that was queued or running when it died. It is an
// append-only JSONL file: a "submit" record carries the job's ID,
// submission time and the original request body; an "end" record
// retires the ID once the job reaches a terminal state. On open the
// file is replayed — submits without a matching end are the jobs to
// recover — and compacted down to just those survivors (atomically,
// via rename), so the journal's size tracks the live job count, not
// the server's lifetime throughput.
//
// Every append is fsynced before the submission is acknowledged: a
// job the client was told about is a job the journal knows about. A
// torn final line (crash mid-append) is ignored on replay.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// journalRecord is one JSONL line. Problem records the job's problem
// type; records from before the multi-problem registry omit it, which
// replay treats as the legacy TSP-only schema. Tenant records the
// job's canonical lane; records from before tenancy omit it and
// recover under the default tenant. "claim" and "release" records
// (written by the fleet coordinator) track which node holds a job's
// lease; records from before the fleet never carry them and replay
// identically.
type journalRecord struct {
	Op        string          `json:"op"` // "submit" | "end" | "claim" | "release"
	ID        string          `json:"id"`
	Problem   string          `json:"problem,omitempty"`
	Tenant    string          `json:"tenant,omitempty"`
	Submitted time.Time       `json:"submitted,omitempty"`
	Request   json.RawMessage `json:"request,omitempty"`
	// Node and Expires belong to "claim" records: the worker holding the
	// job's lease and when that lease lapses.
	Node    string    `json:"node,omitempty"`
	Expires time.Time `json:"expires,omitempty"`
}

// JournalEntry is one live (unfinished) job found during replay.
// Problem is empty for records written before the multi-problem
// registry (the request body itself still identifies the problem);
// Tenant is empty for records written before tenancy (the job recovers
// under the default tenant). ClaimedBy carries the job's latest
// unreleased fleet claim — informational on boot (every lease is void
// once the coordinator restarts: workers must re-register and re-claim)
// but preserved across compaction so operators can see where a job last
// ran.
type JournalEntry struct {
	ID        string
	Problem   string
	Tenant    string
	Submitted time.Time
	Request   json.RawMessage
	// ClaimedBy / ClaimExpires reflect the latest "claim" record not
	// superseded by a "release"; empty when the job was never claimed.
	ClaimedBy    string
	ClaimExpires time.Time
}

// OpenJournal replays and compacts the journal at path (creating it if
// missing), returning the open journal and the live entries in
// submission order.
func OpenJournal(path string) (*Journal, []JournalEntry, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	live, err := replayJournal(path)
	if err != nil {
		return nil, nil, err
	}
	// Compact: rewrite only the live submits, atomically, then append
	// from there. A crash between rename and reopen loses nothing — the
	// compacted file is complete.
	err = checkpoint.WriteFile(path, func(w io.Writer) error {
		for _, e := range live {
			rec := journalRecord{Op: "submit", ID: e.ID, Problem: e.Problem, Tenant: e.Tenant, Submitted: e.Submitted, Request: e.Request}
			if err := appendRecord(w, rec); err != nil {
				return err
			}
			if e.ClaimedBy != "" {
				// An outstanding claim survives compaction right behind its
				// submit, so the who-held-this-last trail is as durable as the
				// job itself.
				claim := journalRecord{Op: "claim", ID: e.ID, Node: e.ClaimedBy, Expires: e.ClaimExpires}
				if err := appendRecord(w, claim); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("journal: compact: %w", err)
	}
	out, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: reopen: %w", err)
	}
	return &Journal{f: out, path: path}, live, nil
}

// replayJournal reads the file and returns the unfinished submissions.
func replayJournal(path string) ([]JournalEntry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	type slot struct {
		entry JournalEntry
		seq   int
	}
	open := map[string]slot{}
	seq := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn trailing line from a crashed append; everything before
			// it already parsed, so recovery proceeds on what is durable.
			break
		}
		switch rec.Op {
		case "submit":
			seq++
			open[rec.ID] = slot{entry: JournalEntry{ID: rec.ID, Problem: rec.Problem, Tenant: rec.Tenant, Submitted: rec.Submitted, Request: rec.Request}, seq: seq}
		case "end":
			delete(open, rec.ID)
		case "claim":
			if s, ok := open[rec.ID]; ok {
				s.entry.ClaimedBy = rec.Node
				s.entry.ClaimExpires = rec.Expires
				open[rec.ID] = s
			}
		case "release":
			if s, ok := open[rec.ID]; ok {
				s.entry.ClaimedBy = ""
				s.entry.ClaimExpires = time.Time{}
				open[rec.ID] = s
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	slots := make([]slot, 0, len(open))
	for _, s := range open {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, k int) bool { return slots[i].seq < slots[k].seq })
	entries := make([]JournalEntry, len(slots))
	for i, s := range slots {
		entries[i] = s.entry
	}
	return entries, nil
}

func appendRecord(w io.Writer, rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: marshal: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	return nil
}

// append writes one record and fsyncs it.
func (j *Journal) append(rec journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if err := appendRecord(j.f, rec); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// Submitted records an accepted job with its canonical tenant, problem
// type and original request body.
func (j *Journal) Submitted(id, tenant string, submitted time.Time, problem string, request json.RawMessage) error {
	return j.SubmittedBatch([]SubmitRecord{{ID: id, Tenant: tenant, Problem: problem, Submitted: submitted, Request: request}})
}

// Finished retires a job that reached a terminal state (done, failed
// or canceled) — it will not be recovered on the next boot.
func (j *Journal) Finished(id string) error {
	return j.append(journalRecord{Op: "end", ID: id})
}

// Claimed records that node holds the job's lease until expires. The
// fleet coordinator fsyncs this before handing the claim to the worker:
// a claim the worker acts on is a claim the journal knows about.
func (j *Journal) Claimed(id, node string, expires time.Time) error {
	return j.append(journalRecord{Op: "claim", ID: id, Node: node, Expires: expires})
}

// Released voids the job's outstanding claim (lease expiry, node death
// or an administrative revoke); the job is claimable again.
func (j *Journal) Released(id string) error {
	return j.append(journalRecord{Op: "release", ID: id})
}

// SubmitRecord is one submission in a SubmittedBatch append.
type SubmitRecord struct {
	ID        string
	Tenant    string
	Problem   string
	Submitted time.Time
	Request   json.RawMessage
}

// SubmittedBatch appends every record and fsyncs exactly once, so a
// batch submit pays one durability barrier instead of N. All records
// become durable together: if the sync fails, none of the batch may be
// acknowledged.
func (j *Journal) SubmittedBatch(recs []SubmitRecord) error {
	if len(recs) == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	for _, r := range recs {
		rec := journalRecord{Op: "submit", ID: r.ID, Problem: r.Problem, Tenant: r.Tenant, Submitted: r.Submitted, Request: r.Request}
		if err := appendRecord(j.f, rec); err != nil {
			return err
		}
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// Close releases the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
