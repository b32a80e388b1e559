package faultinject

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cimsa/internal/fleet"
	"cimsa/internal/problem"
	"cimsa/internal/rng"
	"cimsa/internal/serve"
)

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
	// Ops are FKill, FBlackhole, FClaimStorm and FRestart faults against
	// the claim protocol: nodes die mid-anneal, heartbeats stop
	// arriving, claim storms race for one job, the whole coordinator
	// restarts — and every job must still finish exactly once,
	// bit-identical to a solve that was never interrupted.
	Ops []Op
}

// fleetLease is the scripted lease: long enough that nothing expires by
// accident (the clock only moves when an op advances it), short enough
// that two expiry ops per era stay under the three-lease node-forget
// horizon (2×(lease+1s) < 3×lease), which the per-node conservation
// check needs — a settling node must still be in Stats at the end.
const fleetLease = 15 * time.Second

// fleetKinds maps GenFleetSchedule's draw onto its op kinds.
var fleetKinds = [4]OpKind{FKill, FBlackhole, FClaimStorm, FRestart}

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
		k := fleetKinds[r.Intn(4)]
		if (k == FKill || k == FBlackhole) && expiry >= 2 {
			k = FClaimStorm
		}
		switch k {
		case FKill, FBlackhole:
			expiry++
		case FRestart:
			expiry = 0
		}
		sc.Ops = append(sc.Ops, Op{Kind: k, Arg: 2 + int(r.Intn(6))})
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
	job    *serve.Job // latest-era handle
	want   *problem.Result
}

// fleetRun drives one schedule: a real scheduler in coordinator mode, a
// real journal and checkpoint dir, real workers over the (droppable)
// in-process transport, and real solves.
type fleetRun struct {
	opLog
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
// jobs recovered, a fresh fleet spawned. First boot submits the batch,
// one spec per tracked job.
func (fr *fleetRun) boot(batch []serve.Spec) {
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

	if batch != nil {
		for i, br := range fr.sched.SubmitBatch(batch) {
			if br.Err != nil {
				fr.fatalf("batch submit job %d: %v", i, br.Err)
			}
			fr.jobs[i].id, fr.jobs[i].tenant, fr.jobs[i].job = br.Job.ID, br.Job.Tenant, br.Job
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
	fr.boot(nil)
}

func (fr *fleetRun) finished() string {
	if fr.inFlight() == nil {
		return "batch already finished"
	}
	return ""
}

// step fires one fault at the in-flight job once it is mid-anneal.
func (fr *fleetRun) step(op Op) {
	fr.t.Helper()
	fj := fr.inFlight()
	fr.logf("targeting %s", fj.id)
	if !fr.waitProgress(fj, 2+op.Arg%6) {
		fr.logf("%s finished before the trigger, skipped", fj.id)
		return
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
		fr.fatalf("op %v is not a fleet op", op.Kind)
	}
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
//
// A schedule needs at least one job and a fleet of at least two workers.
func RunFleetSchedule(t *testing.T, sc FleetSchedule) {
	t.Helper()
	fr := &fleetRun{
		opLog:    opLog{t: t, prefix: fmt.Sprintf("[fleet seed %d]", sc.Seed)},
		sc:       sc,
		clk:      NewClock(),
		stateDir: t.TempDir(),
		workers:  map[string]*fleetWorker{},
	}
	if sc.Jobs < 1 || sc.Workers < 2 {
		fr.fatalf("schedule has %d jobs and %d workers, want at least 1 and 2", sc.Jobs, sc.Workers)
	}
	fr.ctx, fr.cancel = context.WithCancel(context.Background())
	// LIFO: cancel fires first, then the wait — worker goroutines log
	// through t.Logf, which panics if it fires after the test returns.
	defer fr.workerWG.Wait()
	defer fr.cancel()

	// Baselines first: each job solved locally, uninterrupted.
	batch := fr.sources()
	for i, spec := range batch {
		task, err := fr.buildTask(spec.Source)
		if err != nil {
			fr.fatalf("baseline task %d: %v", i, err)
		}
		want, err := task.Solve(context.Background(), problem.Run{})
		if err != nil {
			fr.fatalf("baseline solve %d: %v", i, err)
		}
		fr.jobs = append(fr.jobs, &fleetJob{want: want})
	}
	fr.boot(batch)

	fr.drive(sc.Ops, fr.finished, fr.step)

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
		if !sameResult(t, got, fj.want) {
			fr.fatalf("job %d (%s): fleet result differs from uninterrupted local solve:\n got %+v\nwant %+v",
				i, fj.id, got, fj.want)
		}
	}

	fr.checkFleetConservation()
	fr.logAll(fmt.Sprintf("all %d jobs bit-identical", len(fr.jobs)))
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
	fr.conserve("scheduler", &m.Counters)
	// Tenant partition of the era's submissions.
	seen := map[string]bool{}
	var tenants []string
	for _, fj := range fr.jobs {
		if !seen[fj.tenant] {
			seen[fj.tenant] = true
			tenants = append(tenants, fj.tenant)
		}
	}
	fr.conservePartition("tenant", tenants, m.Tenant, &m.Counters)

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
