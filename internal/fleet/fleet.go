// Package fleet turns the single-node solve service into a
// coordinator/worker fleet. The coordinator owns the queue, the journal
// and the checkpoint state dir — exactly the durable assets PR-4 built
// for crash recovery — and leases jobs to worker nodes over a small
// claim protocol. Workers register with heartbeats, claim one job at a
// time, solve it locally, and ship every epoch checkpoint back to the
// coordinator; when a worker dies, its lease lapses, the job becomes
// claimable again, and the next claimant receives the latest shipped
// checkpoint, so the resumed solve is bit-identical to one that was
// never interrupted (the same counter-hash-randomness argument that
// makes single-node resume exact).
//
// The package deliberately knows nothing about package serve: the
// scheduler hands jobs in via Offer (the fleet analogue of calling
// Task.Solve), the journal arrives behind the ClaimLog interface, and
// workers rebuild tasks through an injected BuildTask hook. That keeps
// the dependency arrow pointing one way — serve imports fleet, never
// the reverse.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"cimsa/internal/fairsched"
	"cimsa/internal/problem"
)

// Job is one unit of work the coordinator can lease out: the scheduler
// admitted it, the journal holds it, and Source is the original request
// body a worker replays through the problem registry to rebuild exactly
// the task the coordinator validated.
type Job struct {
	ID      string
	Problem string
	Tenant  string
	Source  json.RawMessage
	// CheckpointDir is the coordinator-side directory holding the job's
	// shipped checkpoints; on (re-)claim the newest one travels with the
	// grant so the claimant resumes mid-anneal.
	CheckpointDir string
	// CheckpointEvery is the shipping cadence in write-back epochs.
	CheckpointEvery int
}

// ClaimLog is the slice of the serve journal the coordinator needs:
// fsync'd claim records, so "which node holds this job" survives a
// coordinator crash exactly as durably as the job itself.
type ClaimLog interface {
	Claimed(id, node string, expires time.Time) error
	Released(id string) error
}

// Sentinel errors, mapped onto HTTP statuses by the fleet transport.
var (
	// ErrUnknownNode rejects a call from a node that never registered
	// (or that the coordinator forgot across a restart); the worker's
	// remedy is to re-register.
	ErrUnknownNode = errors.New("fleet: unknown node")
	// ErrGone rejects a call against a claim that no longer stands —
	// lease expired, job reassigned, completed by another holder, or a
	// stale token. The worker's remedy is to abandon that job.
	ErrGone = errors.New("fleet: claim gone")
	// ErrBadNodeName rejects registration under a name that fails the
	// fairsched hostile-name guard (node names flow into metric labels
	// and journal records, so they obey the same alphabet as tenants).
	ErrBadNodeName = errors.New("fleet: invalid node name")
	// ErrBadCompletion rejects a completion carrying neither a result
	// nor an error: settling an offer with nothing would hand the
	// scheduler a nil result under a nil error and crash it, so the
	// claim stays live and the worker (or hostile client) gets a 400.
	ErrBadCompletion = errors.New("fleet: completion has neither result nor error")
)

// Config parameterizes a Coordinator.
type Config struct {
	// Lease is how long a claim stands without a renewing touch
	// (heartbeat, checkpoint ship, progress post or completion).
	// Default 15s.
	Lease time.Duration
	// Now is the clock (injectable so fault-injection schedules can
	// script lease expiry deterministically). Default time.Now.
	Now func() time.Time
	// Journal, when non-nil, durably records claims and releases.
	Journal ClaimLog
	// Auth, when non-empty, is a shared secret every fleet HTTP call
	// must present in the X-Fleet-Auth header; Routes rejects the rest
	// with 401. Empty leaves /v1/fleet/* open — acceptable only when
	// the listener is network-isolated from untrusted clients, since
	// an open claim protocol lets any peer register, claim jobs (and
	// read their source bodies), or post fabricated results.
	Auth string
	// Logf logs operational events. Default: discard.
	Logf func(format string, args ...any)
}

// Grant is one leased job handed to a claiming worker.
type Grant struct {
	JobID   string          `json:"job_id"`
	Problem string          `json:"problem"`
	Tenant  string          `json:"tenant,omitempty"`
	Source  json.RawMessage `json:"source"`
	// Token authenticates every subsequent call about this claim; the
	// coordinator mints a fresh token per claim, so a call from a
	// previous (expired) claimant of the same job is recognizably stale.
	Token uint64 `json:"token"`
	// LeaseMillis tells the worker how often it must touch the claim.
	LeaseMillis     int64 `json:"lease_millis"`
	CheckpointEvery int   `json:"checkpoint_every,omitempty"`
	// CheckpointName/Checkpoint carry the newest shipped snapshot when
	// the job was already partially solved by a previous claimant; the
	// worker seeds its scratch dir with it and resumes mid-anneal.
	CheckpointName string `json:"checkpoint_name,omitempty"`
	Checkpoint     []byte `json:"checkpoint,omitempty"`
}

// offer is one job the scheduler is waiting on: claimable when node is
// empty, leased otherwise. Settling (exactly once) closes done. The
// offer object is stable across re-claims (revocation only clears
// node/token), so wmu serializes checkpoint-file writes for the job
// across successive claimants.
type offer struct {
	job     Job
	run     problem.Run
	node    string
	token   uint64
	expires time.Time
	done    chan struct{}
	res     *problem.Result
	errMsg  string
	wmu     sync.Mutex // held across checkpoint-file writes; see ShipCheckpoint
}

// settled maps a settled offer onto the scheduler's (result, error)
// contract. Complete rejects empty completions, so a settled offer
// always carries one of the two — but the scheduler dereferences the
// result on the nil-error path, so a nil result is never returned
// under a nil error even if a future settle path regresses.
func (o *offer) settled() (*problem.Result, error) {
	if o.errMsg != "" {
		return nil, errors.New(o.errMsg)
	}
	if o.res == nil {
		return nil, fmt.Errorf("%w (settled empty)", ErrBadCompletion)
	}
	return o.res, nil
}

// node tracks one registered worker.
type node struct {
	lastSeen time.Time
	claimed  map[string]struct{}
	// cancels are job IDs whose leases were revoked or whose jobs were
	// cancelled while this node held them; delivered (and cleared) on
	// the node's next heartbeat so it stops burning cycles on them.
	cancels    []string
	completed  int64
	reassigned int64
}

// Coordinator leases offered jobs to registered workers and settles
// each offer exactly once.
type Coordinator struct {
	cfg Config

	mu         sync.Mutex
	nodes      map[string]*node
	offers     map[string]*offer
	queue      []string // claimable job IDs, resume-priority order
	tokenSeq   uint64
	reassigned int64
	staleDrops int64
}

// NewCoordinator builds a coordinator with defaults applied.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.Lease <= 0 {
		cfg.Lease = 15 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Coordinator{
		cfg:    cfg,
		nodes:  map[string]*node{},
		offers: map[string]*offer{},
	}
}

// Lease returns the configured lease duration.
func (c *Coordinator) Lease() time.Duration { return c.cfg.Lease }

// Offer enqueues a job for the fleet and blocks until a worker settles
// it or ctx is cancelled. It is the fleet-dispatch analogue of calling
// task.Solve: the scheduler's run hooks (progress fan-out, checkpoint
// accounting) fire from the claimant's posts. On ctx cancellation the
// offer is withdrawn; a holder learns via its next heartbeat.
func (c *Coordinator) Offer(ctx context.Context, job Job, run problem.Run) (*problem.Result, error) {
	o := &offer{job: job, run: run, done: make(chan struct{})}
	c.mu.Lock()
	c.offers[job.ID] = o
	c.queue = append(c.queue, job.ID)
	c.mu.Unlock()

	select {
	case <-o.done:
		return o.settled()
	case <-ctx.Done():
		c.mu.Lock()
		if _, live := c.offers[job.ID]; live {
			delete(c.offers, job.ID)
			if o.node != "" {
				if n := c.nodes[o.node]; n != nil {
					delete(n.claimed, job.ID)
					n.cancels = append(n.cancels, job.ID)
				}
			}
		} else {
			// Settled between ctx firing and the lock: honor the result
			// anyway — the solve completed and the caller's own ctx check
			// decides what to do with it.
			c.mu.Unlock()
			return o.settled()
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Register adds (or resets) a worker node. Re-registration means the
// worker restarted and lost all local state, so any leases it held are
// revoked back to the claimable queue.
func (c *Coordinator) Register(name string) error {
	if !fairsched.ValidName(name) {
		return fmt.Errorf("%w: %q", ErrBadNodeName, name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.nodes[name]; old != nil {
		for id := range old.claimed {
			c.revokeLocked(id, name, "re-registration")
		}
	}
	c.nodes[name] = &node{lastSeen: c.cfg.Now(), claimed: map[string]struct{}{}}
	return nil
}

// Heartbeat renews every lease the node holds and returns the job IDs
// it should stop working on (revoked or cancelled claims).
func (c *Coordinator) Heartbeat(name string) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[name]
	if n == nil {
		return nil, ErrUnknownNode
	}
	now := c.cfg.Now()
	n.lastSeen = now
	for id := range n.claimed {
		if o := c.offers[id]; o != nil && o.node == name {
			o.expires = now.Add(c.cfg.Lease)
		}
	}
	cancels := n.cancels
	n.cancels = nil
	return cancels, nil
}

// Claim leases the next claimable job to the node. Returns (nil, nil)
// when nothing is claimable. The claim record is fsync'd to the journal
// before the grant leaves the coordinator: a claim the worker acts on
// is a claim a restarted coordinator can account for.
func (c *Coordinator) Claim(name string) (*Grant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[name]
	if n == nil {
		return nil, ErrUnknownNode
	}
	now := c.cfg.Now()
	n.lastSeen = now
	var o *offer
	var id string
	for len(c.queue) > 0 {
		id = c.queue[0]
		c.queue = c.queue[1:]
		if cand := c.offers[id]; cand != nil && cand.node == "" {
			o = cand
			break
		}
		// Withdrawn or already leased (requeued duplicates are possible
		// after revoke+re-register races); skip.
	}
	if o == nil {
		return nil, nil
	}
	c.tokenSeq++
	o.node = name
	o.token = c.tokenSeq
	// A cancel still pending for this job was meant for the node's lost
	// claim; delivered now, it would abort the claim being granted.
	n.cancels = slices.DeleteFunc(n.cancels, func(pending string) bool { return pending == id })
	o.expires = now.Add(c.cfg.Lease)
	if c.cfg.Journal != nil {
		if err := c.cfg.Journal.Claimed(id, name, o.expires); err != nil {
			// Not durable ⇒ not granted. Put the job back at the front so
			// the next attempt retries it first.
			o.node = ""
			o.token = 0
			c.queue = append([]string{id}, c.queue...)
			return nil, fmt.Errorf("fleet: journal claim: %w", err)
		}
	}
	n.claimed[id] = struct{}{}
	g := &Grant{
		JobID:           id,
		Problem:         o.job.Problem,
		Tenant:          o.job.Tenant,
		Source:          o.job.Source,
		Token:           o.token,
		LeaseMillis:     c.cfg.Lease.Milliseconds(),
		CheckpointEvery: o.job.CheckpointEvery,
	}
	if o.job.CheckpointDir != "" {
		if ck, data, err := newestCheckpoint(o.job.CheckpointDir); err != nil {
			c.cfg.Logf("fleet: reading checkpoint for %s: %v", id, err)
		} else if ck != "" {
			g.CheckpointName = ck
			g.Checkpoint = data
		}
	}
	return g, nil
}

// newestCheckpoint returns the most recently written *.ckpt file in
// dir ("" when none). Backends atomically overwrite one snapshot per
// instance+seed, so there is normally exactly one candidate.
func newestCheckpoint(dir string) (string, []byte, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return "", nil, nil
	}
	if err != nil {
		return "", nil, err
	}
	best := ""
	var bestMod time.Time
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if best == "" || info.ModTime().After(bestMod) ||
			(info.ModTime().Equal(bestMod) && e.Name() > best) {
			best, bestMod = e.Name(), info.ModTime()
		}
	}
	if best == "" {
		return "", nil, nil
	}
	data, err := os.ReadFile(filepath.Join(dir, best))
	if err != nil {
		return "", nil, err
	}
	return best, data, nil
}

// holderLocked validates that (jobID, node, token) names a standing
// claim and returns its offer; counts a stale drop otherwise.
func (c *Coordinator) holderLocked(jobID, nodeName string, token uint64) (*offer, *node, error) {
	n := c.nodes[nodeName]
	if n == nil {
		return nil, nil, ErrUnknownNode
	}
	o := c.offers[jobID]
	if o == nil || o.node != nodeName || o.token != token {
		c.staleDrops++
		return nil, nil, ErrGone
	}
	return o, n, nil
}

// ShipCheckpoint stores a worker's snapshot bytes into the job's
// coordinator-side checkpoint dir (atomically: tmp + rename, the same
// discipline the local solver uses) and renews the lease. The name is
// reduced to its base and must keep the .ckpt suffix, so a hostile
// worker cannot write outside the job's directory.
//
// Writes are serialized per job under the offer's write lock, and the
// claim is re-validated after acquiring it: a holder whose lease is
// revoked while it was queued behind the lock gets ErrGone instead of
// landing a stale snapshot on top of the new claimant's newer one
// (newestCheckpoint picks by mtime, so last-writer-wins must mean
// current-claimant-wins).
func (c *Coordinator) ShipCheckpoint(jobID, nodeName string, token uint64, name string, data []byte) error {
	base := filepath.Base(name)
	if base != name || !strings.HasSuffix(base, ".ckpt") || len(base) <= len(".ckpt") {
		return fmt.Errorf("fleet: bad checkpoint name %q", name)
	}
	c.mu.Lock()
	o, n, err := c.holderLocked(jobID, nodeName, token)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	now := c.cfg.Now()
	n.lastSeen = now
	o.expires = now.Add(c.cfg.Lease)
	dir := o.job.CheckpointDir
	onWrite := o.run.OnCheckpointWrite
	c.mu.Unlock()

	if dir == "" {
		return nil
	}
	o.wmu.Lock()
	defer o.wmu.Unlock()
	// Re-validate under c.mu now that we hold the write lock: any ship
	// from a later claimant must have queued behind wmu, so if the
	// token still stands here, no newer snapshot can land before ours.
	c.mu.Lock()
	stale := c.offers[jobID] != o || o.node != nodeName || o.token != token
	if stale {
		c.staleDrops++
	}
	c.mu.Unlock()
	if stale {
		return ErrGone
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleet: checkpoint dir: %w", err)
	}
	path := filepath.Join(dir, base)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("fleet: checkpoint write: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fleet: checkpoint rename: %w", err)
	}
	if onWrite != nil {
		onWrite(path)
	}
	return nil
}

// Progress forwards a worker's solver progress event into the job's run
// hooks (the scheduler's SSE fan-out) and renews the lease.
func (c *Coordinator) Progress(jobID, nodeName string, token uint64, ev problem.Progress) error {
	c.mu.Lock()
	o, n, err := c.holderLocked(jobID, nodeName, token)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	now := c.cfg.Now()
	n.lastSeen = now
	o.expires = now.Add(c.cfg.Lease)
	fn := o.run.Progress
	c.mu.Unlock()
	if fn != nil {
		fn(ev)
	}
	return nil
}

// Complete settles the claim's offer exactly once: the offer leaves the
// map atomically with the settle, so a second completion (a stale
// claimant racing the current one) gets ErrGone instead of a double
// terminal event.
func (c *Coordinator) Complete(jobID, nodeName string, token uint64, res *problem.Result, errMsg string) error {
	c.mu.Lock()
	o, n, err := c.holderLocked(jobID, nodeName, token)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	// Checked after holder validation so a stale claimant still sees
	// ErrGone, not a complaint about its (irrelevant) payload.
	if res == nil && errMsg == "" {
		c.mu.Unlock()
		return fmt.Errorf("%w (job %s)", ErrBadCompletion, jobID)
	}
	delete(c.offers, jobID)
	delete(n.claimed, jobID)
	n.lastSeen = c.cfg.Now()
	n.completed++
	o.res = res
	o.errMsg = errMsg
	close(o.done)
	c.mu.Unlock()
	return nil
}

// revokeLocked returns a leased job to the claimable queue (front — a
// partially solved job resumes before fresh work starts) and records
// the release. Caller holds c.mu; holder is the node losing the lease.
func (c *Coordinator) revokeLocked(id, holder, why string) {
	o := c.offers[id]
	if o == nil || o.node != holder {
		return
	}
	o.node = ""
	o.token = 0
	c.queue = append([]string{id}, c.queue...)
	c.reassigned++
	if n := c.nodes[holder]; n != nil {
		delete(n.claimed, id)
		n.cancels = append(n.cancels, id)
		n.reassigned++
	}
	if c.cfg.Journal != nil {
		if err := c.cfg.Journal.Released(id); err != nil {
			c.cfg.Logf("fleet: journal release of %s: %v", id, err)
		}
	}
	c.cfg.Logf("fleet: job %s lease revoked from %s (%s)", id, holder, why)
}

// Sweep expires lapsed leases (the revoked jobs become claimable again,
// checkpoint intact) and forgets nodes silent for three leases. It is
// the only expiry arbiter: a touch that lands before the sweep — even
// past the nominal expiry instant — renews the lease, which is what
// makes "heartbeat delayed but node alive" safe. Returns the number of
// leases revoked.
func (c *Coordinator) Sweep() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	revoked := 0
	for id, o := range c.offers {
		if o.node != "" && !now.Before(o.expires) {
			c.revokeLocked(id, o.node, "lease expired")
			revoked++
		}
	}
	for name, n := range c.nodes {
		if now.Sub(n.lastSeen) >= 3*c.cfg.Lease {
			for id := range n.claimed {
				c.revokeLocked(id, name, "node presumed dead")
				revoked++
			}
			delete(c.nodes, name)
		}
	}
	return revoked
}

// NodeStats is one node's row in Stats.PerNode.
type NodeStats struct {
	Node string `json:"node"`
	// Claimed is the number of leases the node currently holds.
	Claimed int `json:"claimed"`
	// Completed counts offers this node settled; Reassigned counts
	// leases revoked from it.
	Completed  int64 `json:"completed"`
	Reassigned int64 `json:"reassigned"`
	// LastSeenAgoMillis is how long ago the node last touched the
	// coordinator.
	LastSeenAgoMillis int64 `json:"last_seen_ago_millis"`
}

// Stats is a point-in-time fleet snapshot (the /v1/fleet/nodes body and
// the source of the cimserve_fleet_* metric families).
type Stats struct {
	Nodes      int         `json:"nodes"`
	Claimable  int         `json:"claimable"`
	Claimed    int         `json:"claimed"`
	Reassigned int64       `json:"reassigned"`
	StaleDrops int64       `json:"stale_drops"`
	PerNode    []NodeStats `json:"per_node,omitempty"`
}

// Stats snapshots the fleet.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	s := Stats{Nodes: len(c.nodes), Reassigned: c.reassigned, StaleDrops: c.staleDrops}
	for _, o := range c.offers {
		if o.node == "" {
			s.Claimable++
		} else {
			s.Claimed++
		}
	}
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := c.nodes[name]
		s.PerNode = append(s.PerNode, NodeStats{
			Node:              name,
			Claimed:           len(n.claimed),
			Completed:         n.completed,
			Reassigned:        n.reassigned,
			LastSeenAgoMillis: now.Sub(n.lastSeen).Milliseconds(),
		})
	}
	return s
}
