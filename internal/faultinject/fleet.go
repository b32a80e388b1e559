package faultinject

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"cimsa/internal/fleet"
	"cimsa/internal/problem"
	"cimsa/internal/rng"
	"cimsa/internal/serve"
)

// FleetOpKind enumerates the distributed faults a fleet schedule can
// script against a coordinator/worker deployment. Where the resume
// schedules attack one process's checkpoint file, these attack the
// claim protocol: nodes die mid-anneal, heartbeats stop arriving,
// claim storms race for one job, the whole coordinator restarts — and
// every job must still finish exactly once, bit-identical to a solve
// that was never interrupted.
type FleetOpKind int

const (
	// FKill hard-kills the worker holding the in-flight job (kill -9:
	// local solves cancelled, nothing further sent), then expires its
	// lease. The job must be re-claimed and resumed from the newest
	// checkpoint that node shipped before dying. The dead node is
	// replaced so the fleet keeps its size.
	FKill FleetOpKind = iota
	// FBlackhole cuts the holder's network both ways — heartbeats,
	// checkpoint ships and progress posts all fail — until the lease
	// lapses and the job is reassigned; then the partition heals. The
	// isolated worker is still alive and still solving, so its late
	// posts must be dropped as stale (ErrGone), never double-settling
	// the job: the lease-expiry race, end to end.
	FBlackhole
	// FClaimStorm races a burst of synthetic registered nodes calling
	// Claim concurrently against the live fleet, then fires stale
	// completions at the in-flight job. At most one storm claimant can
	// win any job (its claim is immediately revoked back to the real
	// workers), and none of the stale completions may settle anything.
	FClaimStorm
	// FRestart kills every worker and abandons the coordinator and
	// scheduler mid-anneal — the whole control plane dies — then boots a
	// fresh one from the journal and checkpoint dir with a new fleet.
	// Unfinished jobs must be recovered, re-offered, re-claimed and
	// resumed; finished jobs must stay finished.
	FRestart
)

func (k FleetOpKind) String() string {
	switch k {
	case FKill:
		return "kill-node"
	case FBlackhole:
		return "blackhole"
	case FClaimStorm:
		return "claim-storm"
	case FRestart:
		return "coordinator-restart"
	}
	return fmt.Sprintf("fleet-op(%d)", int(k))
}

// FleetOp is one scripted fault. Arg selects the progress event of the
// in-flight job at which the fault fires (modulo a small range) and
// seeds storm sizing.
type FleetOp struct {
	Kind FleetOpKind
	Arg  int
}

// FleetSchedule is a fully seeded distributed-fault script: instances,
// solver options, fleet size and the fault sequence all derive from
// Seed, so a failure replays by seed alone
// (FAULTINJECT_FLEET_SEEDS=<seed>).
type FleetSchedule struct {
	Seed       uint64
	Jobs       int // jobs submitted up front (one batch)
	N          int // instance size of the first job; later jobs shrink
	InstSeed   uint64
	SolverSeed uint64
	Workers    int // fleet size, maintained across kills
	Ops        []FleetOp
}

// fleetLease is the scripted lease: long enough that nothing expires by
// accident (the clock only moves when an op advances it), short enough
// that two expiry ops per era stay under the three-lease node-forget
// horizon (2×(lease+1s) < 3×lease), which the per-node conservation
// check needs — a settling node must still be in Stats at the end.
const fleetLease = 15 * time.Second

// GenFleetSchedule expands a seed into a schedule: one to three jobs,
// a fleet of two or three workers, and two to five faults with at most
// two lease-expiry faults between coordinator restarts.
func GenFleetSchedule(seed uint64) FleetSchedule {
	r := rng.New(seed)
	sc := FleetSchedule{
		Seed:       seed,
		Jobs:       1 + int(r.Intn(3)),
		N:          160 + 40*int(r.Intn(4)),
		InstSeed:   1 + r.Uint64()%64,
		SolverSeed: 1 + r.Uint64()%1024,
		Workers:    2 + int(r.Intn(2)),
	}
	ops := 2 + int(r.Intn(4))
	expiry := 0
	for i := 0; i < ops; i++ {
		k := FleetOpKind(r.Intn(4))
		if (k == FKill || k == FBlackhole) && expiry >= 2 {
			k = FClaimStorm
		}
		switch k {
		case FKill, FBlackhole:
			expiry++
		case FRestart:
			expiry = 0
		}
		sc.Ops = append(sc.Ops, FleetOp{Kind: k, Arg: 2 + int(r.Intn(6))})
	}
	return sc
}

// droppableTransport wraps the in-process coordinator transport with a
// one-way valve: while dropped, every call fails with a plain network-
// style error (not a protocol sentinel), exactly what a partitioned
// worker sees. The target pointer is swappable so a rebooted
// coordinator takes over the same workers' transports.
type droppableTransport struct {
	mu      sync.Mutex
	inner   fleet.Transport
	dropped bool
}

func (d *droppableTransport) get() (fleet.Transport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dropped {
		return nil, fmt.Errorf("faultinject: network partitioned")
	}
	return d.inner, nil
}

func (d *droppableTransport) setDropped(v bool) {
	d.mu.Lock()
	d.dropped = v
	d.mu.Unlock()
}

func (d *droppableTransport) Register(node string) error {
	tr, err := d.get()
	if err != nil {
		return err
	}
	return tr.Register(node)
}

func (d *droppableTransport) Heartbeat(node string) ([]string, error) {
	tr, err := d.get()
	if err != nil {
		return nil, err
	}
	return tr.Heartbeat(node)
}

func (d *droppableTransport) Claim(node string) (*fleet.Grant, error) {
	tr, err := d.get()
	if err != nil {
		return nil, err
	}
	return tr.Claim(node)
}

func (d *droppableTransport) ShipCheckpoint(jobID, node string, token uint64, name string, data []byte) error {
	tr, err := d.get()
	if err != nil {
		return err
	}
	return tr.ShipCheckpoint(jobID, node, token, name, data)
}

func (d *droppableTransport) Progress(jobID, node string, token uint64, ev problem.Progress) error {
	tr, err := d.get()
	if err != nil {
		return err
	}
	return tr.Progress(jobID, node, token, ev)
}

func (d *droppableTransport) Complete(jobID, node string, token uint64, res *problem.Result, errMsg string) error {
	tr, err := d.get()
	if err != nil {
		return err
	}
	return tr.Complete(jobID, node, token, res, errMsg)
}

// fleetWorker is one harness-managed worker node.
type fleetWorker struct {
	name      string
	worker    *fleet.Worker
	transport *droppableTransport
	cancel    context.CancelFunc
}

// fleetJob tracks one submitted job across scheduler eras.
type fleetJob struct {
	id     string
	tenant string
	source json.RawMessage
	job    *serve.Job // latest-era handle
	want   *problem.Result
}

// fleetRun drives one schedule: a real scheduler in coordinator mode, a
// real journal and checkpoint dir, real workers over the (droppable)
// in-process transport, and real solves.
type fleetRun struct {
	t  *testing.T
	sc FleetSchedule

	clk      *Clock
	stateDir string

	journal *serve.Journal
	coord   *fleet.Coordinator
	sched   *serve.Scheduler
	srv     *serve.Server

	ctx    context.Context
	cancel context.CancelFunc

	workers    map[string]*fleetWorker
	workerWG   sync.WaitGroup // every spawned worker's Run goroutine
	nextNode   int
	jobs       []*fleetJob
	doneAtBoot int // jobs already terminal when the current era booted
	opLog      []string
}

func (fr *fleetRun) fatalf(format string, args ...any) {
	fr.t.Helper()
	fr.t.Fatalf("[fleet seed %d] %s\nops:\n  %s",
		fr.sc.Seed, fmt.Sprintf(format, args...), joinLines(fr.opLog))
}

func (fr *fleetRun) logf(format string, args ...any) {
	fr.opLog = append(fr.opLog, fmt.Sprintf(format, args...))
}

// sources builds the batch of job sources. Every job is deterministic
// from the schedule alone, so its baseline is solvable out of band.
func (fr *fleetRun) sources() []serve.Spec {
	items := make([]serve.Spec, fr.sc.Jobs)
	for i := range items {
		n := fr.sc.N - 20*i // later jobs shrink a little: mixed sizes
		src := fmt.Sprintf(
			`{"generate":{"name":"fleet-%d-%d","n":%d,"seed":%d},"options":{"pmax":3,"seed":%d,"skip_hardware":true}}`,
			fr.sc.Seed, i, n, fr.sc.InstSeed+uint64(i), fr.sc.SolverSeed)
		task, err := serve.TaskFor(mustDecodeSubmit(fr.t, src), problem.Limits{})
		if err != nil {
			fr.fatalf("building job %d: %v", i, err)
		}
		items[i] = serve.Spec{Task: task, Source: json.RawMessage(src)}
	}
	return items
}

func mustDecodeSubmit(t *testing.T, src string) *serve.SubmitRequest {
	t.Helper()
	var req serve.SubmitRequest
	if err := json.Unmarshal([]byte(src), &req); err != nil {
		t.Fatal(err)
	}
	return &req
}

// boot starts a scheduler era: journal reopened, coordinator rebuilt,
// jobs recovered, a fresh fleet spawned. First boot submits the batch.
func (fr *fleetRun) boot(first bool) {
	fr.t.Helper()
	journal, entries, err := serve.OpenJournal(filepath.Join(fr.stateDir, "journal.jsonl"))
	if err != nil {
		fr.fatalf("opening journal: %v", err)
	}
	fr.journal = journal
	fr.coord = fleet.NewCoordinator(fleet.Config{
		Lease:   fleetLease,
		Now:     fr.clk.Now,
		Journal: journal,
		Logf:    fr.t.Logf,
	})
	cfg := serve.Config{
		MaxConcurrent:   1, // one offer in flight: ops always know their target
		QueueDepth:      16,
		ResultTTL:       time.Hour,
		Journal:         journal,
		CheckpointDir:   filepath.Join(fr.stateDir, "checkpoints"),
		CheckpointEvery: 1,
		Fleet:           fr.coord,
		Logf:            fr.t.Logf,
	}
	fr.sched = serve.NewScheduler(cfg)
	fr.srv = serve.NewServer(fr.sched)

	if first {
		results := fr.sched.SubmitBatch(fr.sources())
		for i, br := range results {
			if br.Err != nil {
				fr.fatalf("batch submit job %d: %v", i, br.Err)
			}
			fr.jobs = append(fr.jobs, &fleetJob{
				id:     br.Job.ID,
				tenant: br.Job.Tenant,
				source: fr.sources()[i].Source,
				job:    br.Job,
			})
		}
	} else {
		n := fr.srv.Recover(entries)
		fr.logf("restart: recovered %d unfinished job(s) from the journal", n)
		for _, fj := range fr.jobs {
			if job, ok := fr.sched.Get(fj.id); ok {
				fj.job = job
			}
			// A job absent from the new scheduler finished in a previous
			// era; its old handle stays valid for auditing.
		}
	}
	// Counted after recovery, before any worker can settle anything: a
	// job re-enqueued by Recover belongs to this era's ledger even if an
	// earlier era also solved it (its retirement raced the crash).
	fr.doneAtBoot = fr.countDone()
	for i := 0; i < fr.sc.Workers; i++ {
		fr.spawnWorker()
	}
}

// spawnWorker adds one worker node to the live fleet.
func (fr *fleetRun) spawnWorker() *fleetWorker {
	fr.t.Helper()
	name := fmt.Sprintf("w%d", fr.nextNode)
	fr.nextNode++
	tr := &droppableTransport{inner: fr.coord}
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Node:           name,
		Transport:      tr,
		BuildTask:      fr.buildTask,
		ScratchDir:     filepath.Join(fr.t.TempDir(), name),
		HeartbeatEvery: 4 * time.Millisecond,
		PollEvery:      2 * time.Millisecond,
		Logf:           fr.t.Logf,
	})
	if err != nil {
		fr.fatalf("spawning worker %s: %v", name, err)
	}
	wctx, cancel := context.WithCancel(fr.ctx)
	fw := &fleetWorker{name: name, worker: w, transport: tr, cancel: cancel}
	fr.workers[name] = fw
	fr.workerWG.Add(1)
	go func() {
		defer fr.workerWG.Done()
		_ = w.Run(wctx)
	}()
	return fw
}

func (fr *fleetRun) buildTask(source json.RawMessage) (problem.Task, error) {
	var req serve.SubmitRequest
	if err := json.Unmarshal(source, &req); err != nil {
		return nil, err
	}
	return serve.TaskFor(&req, problem.Limits{})
}

func (fr *fleetRun) countDone() int {
	n := 0
	for _, fj := range fr.jobs {
		if fj.job != nil && fj.job.Status().State.Terminal() {
			n++
		}
	}
	return n
}

// inFlight returns the first job that is not yet terminal, nil when the
// whole batch already finished (remaining ops become no-ops, like a
// resume schedule whose solve outran the kill).
func (fr *fleetRun) inFlight() *fleetJob {
	for _, fj := range fr.jobs {
		if !fj.job.Status().State.Terminal() {
			return fj
		}
	}
	return nil
}

// waitProgress blocks until the job has published at least k progress
// events in the current era (or went terminal first; reports false).
// Faults triggered here land mid-anneal by construction.
func (fr *fleetRun) waitProgress(fj *fleetJob, k int) bool {
	fr.t.Helper()
	replay, _, ch, unsub := fj.job.Subscribe()
	defer unsub()
	seen := 0
	for _, ev := range replay {
		if ev.Type == "progress" {
			seen++
		}
	}
	deadline := time.After(60 * time.Second)
	for seen < k {
		select {
		case ev, ok := <-ch:
			if !ok {
				return false // terminal: stream closed
			}
			if ev.Type == "progress" {
				seen++
			}
		case <-deadline:
			fr.fatalf("job %s: stuck waiting for progress event %d (saw %d)", fj.id, k, seen)
		}
	}
	return true
}

// holder returns the live worker currently holding a lease, waiting for
// the claim to land if the job was just (re)queued.
func (fr *fleetRun) holder() *fleetWorker {
	fr.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		for _, ns := range fr.coord.Stats().PerNode {
			if ns.Claimed > 0 {
				if fw := fr.workers[ns.Node]; fw != nil {
					return fw
				}
			}
		}
		if fr.inFlight() == nil {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	fr.fatalf("no worker ever claimed the in-flight job")
	return nil
}

// expireLease advances the scripted clock past the lease and sweeps;
// exactly the coordinator's dead-node discovery path.
func (fr *fleetRun) expireLease() int {
	fr.clk.Advance(fleetLease + time.Second)
	return fr.coord.Sweep()
}

// opKill: kill -9 the holder, expire its lease, replace the node.
func (fr *fleetRun) opKill(fj *fleetJob) {
	fr.t.Helper()
	fw := fr.holder()
	if fw == nil {
		fr.logf("kill-node: batch finished first, skipped")
		return
	}
	fw.worker.Kill()
	fw.cancel()
	delete(fr.workers, fw.name)
	revoked := fr.expireLease()
	if revoked == 0 {
		fr.fatalf("kill-node: sweep after killing %s revoked nothing", fw.name)
	}
	repl := fr.spawnWorker()
	fr.logf("kill-node: killed %s mid-anneal of %s, lease expired (%d revoked), spawned %s",
		fw.name, fj.id, revoked, repl.name)
}

// opBlackhole: partition the holder, let the lease lapse and the job
// reassign, then heal the partition. The isolated worker keeps solving
// and its late posts must all be dropped as stale.
func (fr *fleetRun) opBlackhole(fj *fleetJob) {
	fr.t.Helper()
	fw := fr.holder()
	if fw == nil {
		fr.logf("blackhole: batch finished first, skipped")
		return
	}
	before := fr.coord.Stats().Reassigned
	fw.transport.setDropped(true)
	revoked := fr.expireLease()
	if revoked == 0 {
		fr.fatalf("blackhole: sweep after isolating %s revoked nothing", fw.name)
	}
	fw.transport.setDropped(false)
	after := fr.coord.Stats().Reassigned
	if after <= before {
		fr.fatalf("blackhole: Reassigned did not grow (%d -> %d)", before, after)
	}
	fr.logf("blackhole: isolated %s mid-anneal of %s, job reassigned, partition healed", fw.name, fj.id)
}

// opClaimStorm: a burst of synthetic nodes races Claim, then fires
// stale completions. At most one storm claim can win any job, the win
// is revoked straight back to the real fleet, and no stale completion
// settles anything.
func (fr *fleetRun) opClaimStorm(fj *fleetJob, arg int) {
	fr.t.Helper()
	nodes := 2 + arg%3
	grants := make(chan *fleet.Grant, nodes)
	errs := make(chan error, nodes)
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("storm%d", i)
		if err := fr.coord.Register(name); err != nil {
			fr.fatalf("claim-storm: register %s: %v", name, err)
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			g, err := fr.coord.Claim(name)
			if err != nil {
				errs <- fmt.Errorf("claim from %s: %w", name, err)
				return
			}
			if g != nil {
				grants <- g
			}
		}(name)
	}
	wg.Wait()
	close(grants)
	close(errs)
	for err := range errs {
		fr.fatalf("claim-storm: %v", err)
	}
	won := 0
	for g := range grants {
		won++
		// Give the stolen job straight back: re-registering the winner
		// revokes its leases onto the queue front for the real workers.
		holder := ""
		for _, ns := range fr.coord.Stats().PerNode {
			if ns.Claimed > 0 && fr.workers[ns.Node] == nil {
				holder = ns.Node
			}
		}
		if holder == "" {
			fr.fatalf("claim-storm: grant %s won but no synthetic node shows the claim", g.JobID)
		}
		if err := fr.coord.Register(holder); err != nil {
			fr.fatalf("claim-storm: releasing stolen claim: %v", err)
		}
	}
	if won > 1 {
		fr.fatalf("claim-storm: %d of %d synthetic nodes won a claim for one job", won, nodes)
	}
	// Stale completions against the in-flight job: bogus tokens from
	// registered nodes must bounce with ErrGone, never settle the offer.
	dropsBefore := fr.coord.Stats().StaleDrops
	for i := 0; i < nodes; i++ {
		err := fr.coord.Complete(fj.id, fmt.Sprintf("storm%d", i), uint64(1000000+i), &problem.Result{Problem: "tsp"}, "")
		if err == nil {
			fr.fatalf("claim-storm: stale completion from storm%d settled job %s", i, fj.id)
		}
	}
	if drops := fr.coord.Stats().StaleDrops - dropsBefore; drops < int64(nodes) {
		fr.fatalf("claim-storm: only %d of %d stale completions counted as drops", drops, nodes)
	}
	fr.logf("claim-storm: %d racing claims (%d won, returned), %d stale completions all dropped", nodes, won, nodes)
}

// opRestart: the control plane dies mid-anneal — workers killed,
// coordinator and scheduler abandoned, journal closed — then a fresh
// era boots from the same state dir.
func (fr *fleetRun) opRestart() {
	fr.t.Helper()
	for name, fw := range fr.workers {
		fw.worker.Kill()
		fw.cancel()
		delete(fr.workers, name)
	}
	// The old scheduler's in-flight Offer now blocks forever against the
	// abandoned coordinator; closing the journal guarantees the old era
	// can write nothing more under the new era's feet.
	fr.journal.Close()
	fr.logf("coordinator-restart: fleet killed, control plane abandoned, rebooting from %s", fr.stateDir)
	fr.boot(false)
}

// RunFleetSchedule executes a distributed-fault schedule end to end and
// checks the fleet's core promises at the quiescent end state:
//
//   - every submitted job finishes done, exactly once, with an event
//     stream carrying exactly one terminal event;
//   - every result is bit-identical to an uninterrupted local solve of
//     the same source (failover resumed the right state);
//   - scheduler gauges obey the conservation identity globally and
//     partitioned by tenant;
//   - fleet gauges are quiescent (nothing claimed or claimable) and the
//     final era's settlements partition exactly across its nodes.
func RunFleetSchedule(t *testing.T, sc FleetSchedule) {
	t.Helper()
	if sc.Jobs <= 0 {
		sc.Jobs = 1
	}
	if sc.Workers < 2 {
		sc.Workers = 2
	}
	fr := &fleetRun{
		t:        t,
		sc:       sc,
		clk:      NewClock(),
		stateDir: t.TempDir(),
		workers:  map[string]*fleetWorker{},
	}
	fr.ctx, fr.cancel = context.WithCancel(context.Background())
	// LIFO: cancel fires first, then the wait — worker goroutines log
	// through t.Logf, which panics if it fires after the test returns.
	defer fr.workerWG.Wait()
	defer fr.cancel()

	// Baselines first: each job solved locally, uninterrupted.
	for i, item := range fr.sources() {
		task, err := fr.buildTask(item.Source)
		if err != nil {
			t.Fatalf("[fleet seed %d] baseline task %d: %v", sc.Seed, i, err)
		}
		want, err := task.Solve(context.Background(), problem.Run{})
		if err != nil {
			t.Fatalf("[fleet seed %d] baseline solve %d: %v", sc.Seed, i, err)
		}
		fr.jobs = append(fr.jobs, &fleetJob{want: want})
	}
	baselines := fr.jobs
	fr.jobs = nil
	fr.boot(true)
	for i, fj := range fr.jobs {
		fj.want = baselines[i].want
	}

	for i, op := range sc.Ops {
		fj := fr.inFlight()
		if fj == nil {
			fr.logf("op %d: %s skipped, batch already finished", i, op.Kind)
			continue
		}
		fr.logf("op %d: %s(%d) targeting %s", i, op.Kind, op.Arg, fj.id)
		if !fr.waitProgress(fj, 2+op.Arg%6) {
			fr.logf("op %d: %s finished before the trigger, skipped", i, fj.id)
			continue
		}
		switch op.Kind {
		case FKill:
			fr.opKill(fj)
		case FBlackhole:
			fr.opBlackhole(fj)
		case FClaimStorm:
			fr.opClaimStorm(fj, op.Arg)
		case FRestart:
			fr.opRestart()
		default:
			fr.fatalf("unknown fleet op %v", op.Kind)
		}
	}

	// Drain: every job must reach a terminal state without further help.
	for _, fj := range fr.jobs {
		select {
		case <-fj.job.Done():
		case <-time.After(120 * time.Second):
			fr.fatalf("job %s never finished (state %s)", fj.id, fj.job.Status().State)
		}
	}

	// Exactly-once terminal delivery + bit-identical failover results.
	for i, fj := range fr.jobs {
		st := fj.job.Status()
		if st.State != serve.StateDone {
			fr.fatalf("job %s ended %s (%s), want done", fj.id, st.State, st.Error)
		}
		AuditTerminalStream(t, sc.Seed, fj.job)
		got := fj.job.Result()
		if got == nil {
			fr.fatalf("job %s done with no result", fj.id)
		}
		if !bitIdentical(t, got, fj.want) {
			fr.fatalf("job %d (%s): fleet result differs from uninterrupted local solve:\n got %+v\nwant %+v",
				i, fj.id, got, fj.want)
		}
	}

	fr.checkFleetConservation()
	if testing.Verbose() {
		t.Logf("[fleet seed %d] all %d jobs bit-identical after:\n  %s",
			sc.Seed, len(fr.jobs), joinLines(fr.opLog))
	}
}

// bitIdentical compares two results through a canonicalizing JSON
// round-trip: typed structs and wire-decoded maps land in the same
// shape, and float64 survives JSON exactly, so DeepEqual means the
// numbers match to the last bit.
func bitIdentical(t *testing.T, got, want *problem.Result) bool {
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

// checkFleetConservation asserts the quiescent end-state identities:
// scheduler gauges balance globally and per tenant, the fleet holds no
// outstanding claims, and the final era's completions partition exactly
// across its nodes.
func (fr *fleetRun) checkFleetConservation() {
	fr.t.Helper()
	m := &fr.sched.Metrics
	if q, r := m.Queued.Load(), m.Running.Load(); q != 0 || r != 0 {
		fr.fatalf("quiescent scheduler still shows queued=%d running=%d", q, r)
	}
	sum := m.Queued.Load() + m.Running.Load() + m.Done.Load() + m.Failed.Load() + m.Canceled.Load()
	if sum != m.Submitted.Load() {
		fr.fatalf("scheduler conservation identity broken: buckets sum to %d, submitted %d", sum, m.Submitted.Load())
	}
	// Tenant partition of the era's submissions.
	tenants := map[string]bool{}
	for _, fj := range fr.jobs {
		tenants[fj.tenant] = true
	}
	var partition int64
	for tenant := range tenants {
		tm := m.Tenant(tenant)
		tsum := tm.Queued.Load() + tm.Running.Load() + tm.Done.Load() + tm.Failed.Load() + tm.Canceled.Load()
		if tsum != tm.Submitted.Load() {
			fr.fatalf("conservation[tenant %s] identity broken: buckets sum to %d, submitted %d",
				tenant, tsum, tm.Submitted.Load())
		}
		partition += tm.Submitted.Load()
	}
	if partition != m.Submitted.Load() {
		fr.fatalf("per-tenant submitted counts sum to %d, global submitted %d", partition, m.Submitted.Load())
	}

	stats := fr.coord.Stats()
	if stats.Claimed != 0 || stats.Claimable != 0 {
		fr.fatalf("quiescent fleet still shows claimed=%d claimable=%d", stats.Claimed, stats.Claimable)
	}
	var settled int64
	for _, ns := range stats.PerNode {
		if ns.Claimed != 0 {
			fr.fatalf("quiescent node %s still shows %d claims", ns.Node, ns.Claimed)
		}
		settled += ns.Completed
	}
	if wantDone := int64(fr.countDone() - fr.doneAtBoot); settled != wantDone {
		fr.fatalf("per-node completions sum to %d, but %d jobs finished in this era", settled, wantDone)
	}
}
