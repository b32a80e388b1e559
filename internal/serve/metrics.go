package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cimsa/internal/fleet"
)

// Metrics holds the service counters in a Prometheus-compatible text
// exposition (hand-rolled: the module takes no dependencies). Gauges
// track the live queue/slot occupancy; counters are monotonic.
//
// The unlabeled cimserve_jobs_* families aggregate over every problem
// type and every tenant — their names and meanings predate the
// multi-problem registry and are stable. The cimserve_problem_jobs_*
// and cimserve_tenant_jobs_* families carry the same counters split by
// {problem="..."} and {tenant="..."} labels; they are separate families
// (not labeled series of the old names) so sum() over any one family
// never double-counts.
type Metrics struct {
	// Counters are the global job counters (cimserve_jobs_*).
	Counters
	// RateLimited is the token-bucket slice of Rejected.
	RateLimited atomic.Int64

	CheckpointsWritten atomic.Int64 // durable solver snapshots written
	Resumes            atomic.Int64 // solves continued from a checkpoint
	ResumeFailures     atomic.Int64 // checkpoints rejected (job solved fresh)
	Recovered          atomic.Int64 // jobs re-enqueued from the journal on boot

	// Result-cache outcomes per dispatched job: a hit served the stored
	// result, a miss led the solve (and populated the cache on success),
	// a coalesce attached the job to an identical in-flight solve.
	CacheHits      atomic.Int64
	CacheMisses    atomic.Int64
	CacheCoalesced atomic.Int64
	// CacheStats, when non-nil, supplies the live cache occupancy gauges
	// (entry count, marshalled bytes); nil means caching is off.
	CacheStats func() (entries int, bytes int64)

	// FleetStats, when non-nil, supplies the coordinator's fleet snapshot
	// for the cimserve_fleet_* families; nil means no fleet (standalone).
	// Node labels come from registration-guarded names (the fairsched
	// alphabet), so a hostile node ID cannot inject metric labels.
	FleetStats func() fleet.Stats

	// solveNanos and iterations accumulate over completed solves; their
	// ratio is the service's aggregate iterations/sec.
	solveNanos atomic.Int64
	iterations atomic.Int64

	// problems and tenants are the labeled slices of the job counters.
	// Tenants are always accounted by their canonical lane name
	// (fairsched folds invalid or over-budget names into the default
	// lane), so label cardinality is bounded by the tenant budget, not
	// by hostile header churn.
	problems labeled[Counters]
	tenants  labeled[Counters]
}

// Counters is one slice of the job counters: the global totals
// Metrics embeds, or one problem type's or one tenant's share. Every
// admitted job sits in exactly one of Queued, Running, Done, Failed and
// Canceled, so those sum to Submitted.
type Counters struct {
	Submitted atomic.Int64 // jobs accepted into the queue
	// Rejected counts every backpressure refusal (HTTP 429): global
	// queue full, tenant max_queued quota, and tenant rate limit. A
	// refused job never joins a problem type's books, so problem slices
	// keep it at zero.
	Rejected atomic.Int64
	Queued   atomic.Int64 // gauge: jobs waiting for a slot
	Running  atomic.Int64 // gauge: jobs occupying a solver slot
	Done     atomic.Int64 // jobs finished successfully
	Failed   atomic.Int64 // jobs finished with an error
	Canceled atomic.Int64 // jobs canceled (queued or running)

	// queueWait is the submit→dispatch latency histogram, observed on
	// tenant slices only.
	queueWait waitHist
}

// in returns the gauge or terminal counter that holds jobs in state st.
func (c *Counters) in(st State) *atomic.Int64 {
	switch st {
	case StateQueued:
		return &c.Queued
	case StateRunning:
		return &c.Running
	case StateDone:
		return &c.Done
	case StateFailed:
		return &c.Failed
	default:
		return &c.Canceled
	}
}

// labeled is a set of per-label values (one per problem type or
// tenant), each created on first use; pointers are stable for the
// set's lifetime.
type labeled[T any] struct {
	mu sync.Mutex
	m  map[string]*T
}

func (l *labeled[T]) get(name string) *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m == nil {
		l.m = map[string]*T{}
	}
	v := l.m[name]
	if v == nil {
		v = new(T)
		l.m[name] = v
	}
	return v
}

// snapshot returns the label names, sorted for a stable exposition
// order, and their values.
func (l *labeled[T]) snapshot() ([]string, []*T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.m))
	for n := range l.m {
		names = append(names, n)
	}
	sort.Strings(names)
	vals := make([]*T, len(names))
	for i, n := range names {
		vals[i] = l.m[n]
	}
	return names, vals
}

// queueWaitBuckets are the cimserve_queue_wait_seconds upper bounds; a
// +Inf bucket is implicit. Fast dispatch under light load lands in the
// millisecond buckets; a starved tenant shows up in the tail.
var queueWaitBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// waitHist is a fixed-bucket latency histogram (Prometheus classic
// histogram semantics: _bucket series are cumulative at exposition).
type waitHist struct {
	buckets  [len(queueWaitBuckets) + 1]atomic.Int64 // last = +Inf
	sumNanos atomic.Int64
	count    atomic.Int64
}

func (h *waitHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	secs := d.Seconds()
	i := 0
	for ; i < len(queueWaitBuckets); i++ {
		if secs <= queueWaitBuckets[i] {
			break
		}
	}
	h.buckets[i].Add(1)
	h.sumNanos.Add(d.Nanoseconds())
	h.count.Add(1)
}

// Problem returns one problem type's counters, creating them on first
// use.
func (m *Metrics) Problem(name string) *Counters { return m.problems.get(name) }

// Tenant returns one canonical tenant lane's counters, creating them on
// first use.
func (m *Metrics) Tenant(name string) *Counters { return m.tenants.get(name) }

// move records one job state change in the global, problem and tenant
// counters at once; from "" is a new submission. This is the only
// place the job counters of admitted jobs change.
func (m *Metrics) move(problem, tenant string, from, to State) {
	for _, c := range [...]*Counters{&m.Counters, m.Problem(problem), m.Tenant(tenant)} {
		if from == "" {
			c.Submitted.Add(1)
		} else {
			c.in(from).Add(-1)
		}
		c.in(to).Add(1)
	}
}

// reject records one backpressure refusal in the global and tenant
// counters.
func (m *Metrics) reject(tenant string, rateLimited bool) {
	m.Rejected.Add(1)
	m.Tenant(tenant).Rejected.Add(1)
	if rateLimited {
		m.RateLimited.Add(1)
	}
}

// ObserveSolve records a completed solve's latency and iteration count.
func (m *Metrics) ObserveSolve(nanos int64, iterations int) {
	m.solveNanos.Add(nanos)
	m.iterations.Add(int64(iterations))
}

// ObserveQueueWait records one job's submit→dispatch latency under its
// tenant (cache-served jobs observe submit→completion: they leave the
// queue without ever occupying a slot).
func (m *Metrics) ObserveQueueWait(tenant string, d time.Duration) {
	m.tenants.get(tenant).queueWait.observe(d)
}

// jobFamilies are the labeled job counter families, emitted as
// cimserve_<label>_jobs_<suffix> with help "<help>, by <what>.".
// Rejections are split by tenant only.
var jobFamilies = []struct {
	suffix, kind, help string
	tenantOnly         bool
	v                  func(*Counters) int64
}{
	{"submitted_total", "counter", "Jobs accepted into the queue", false, func(c *Counters) int64 { return c.Submitted.Load() }},
	{"rejected_total", "counter", "Jobs refused with backpressure", true, func(c *Counters) int64 { return c.Rejected.Load() }},
	{"queued", "gauge", "Jobs currently waiting for a solver slot", false, func(c *Counters) int64 { return c.Queued.Load() }},
	{"running", "gauge", "Jobs currently occupying a solver slot", false, func(c *Counters) int64 { return c.Running.Load() }},
	{"done_total", "counter", "Jobs finished successfully", false, func(c *Counters) int64 { return c.Done.Load() }},
	{"failed_total", "counter", "Jobs finished with a solver error", false, func(c *Counters) int64 { return c.Failed.Load() }},
	{"canceled_total", "counter", "Jobs canceled while queued or running", false, func(c *Counters) int64 { return c.Canceled.Load() }},
}

// family is one labeled metric family; v reads a series' value.
type family[T any] struct {
	name, kind, help string
	v                func(T) int64
}

// jobFamiliesFor instantiates jobFamilies for one label; tenant says
// whether the tenant-only families are included.
func jobFamiliesFor(label, what string, tenant bool) []family[*Counters] {
	var fams []family[*Counters]
	for _, f := range jobFamilies {
		if f.tenantOnly && !tenant {
			continue
		}
		fams = append(fams, family[*Counters]{"cimserve_" + label + "_jobs_" + f.suffix, f.kind, f.help + ", by " + what + ".", f.v})
	}
	return fams
}

// expo writes exposition text, counting bytes and keeping the first
// error (every later write is skipped).
type expo struct {
	w   io.Writer
	n   int64
	err error
}

func (e *expo) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	c, err := fmt.Fprintf(e.w, format, args...)
	e.n += int64(c)
	e.err = err
}

// metric emits one unlabeled metric with its HELP and TYPE lines.
func (e *expo) metric(name, kind, help string, v float64) {
	e.printf("# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, kind, name, formatMetric(v))
}

// families emits labeled families: each family's HELP and TYPE lines,
// then one series per value, vals[i] labeled name(i). Nothing is
// written when there are no values.
func families[T any](e *expo, label string, vals []T, name func(i int) string, fams []family[T]) {
	if len(vals) == 0 {
		return
	}
	for _, f := range fams {
		e.printf("# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for i, v := range vals {
			e.printf("%s{%s=%q} %s\n", f.name, label, name(i), formatMetric(float64(f.v(v))))
		}
	}
}

// WriteTo emits the Prometheus text format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	e := &expo{w: w}
	secs := float64(m.solveNanos.Load()) / 1e9
	iters := float64(m.iterations.Load())
	ips := 0.0
	if secs > 0 {
		ips = iters / secs
	}
	cacheEntries, cacheBytes := 0, int64(0)
	if m.CacheStats != nil {
		cacheEntries, cacheBytes = m.CacheStats()
	}
	for _, row := range []struct {
		name, kind, help string
		v                float64
	}{
		{"cimserve_jobs_submitted_total", "counter", "Jobs accepted into the queue.", float64(m.Submitted.Load())},
		{"cimserve_jobs_rejected_total", "counter", "Jobs refused with backpressure (queue full, tenant quota or rate limit; HTTP 429).", float64(m.Rejected.Load())},
		{"cimserve_jobs_rate_limited_total", "counter", "Jobs refused by a tenant token-bucket rate limit (a slice of rejected_total).", float64(m.RateLimited.Load())},
		{"cimserve_jobs_queued", "gauge", "Jobs currently waiting for a solver slot.", float64(m.Queued.Load())},
		{"cimserve_jobs_running", "gauge", "Jobs currently occupying a solver slot.", float64(m.Running.Load())},
		{"cimserve_jobs_done_total", "counter", "Jobs finished successfully.", float64(m.Done.Load())},
		{"cimserve_jobs_failed_total", "counter", "Jobs finished with a solver error.", float64(m.Failed.Load())},
		{"cimserve_jobs_canceled_total", "counter", "Jobs canceled while queued or running.", float64(m.Canceled.Load())},
		{"cimserve_checkpoints_written_total", "counter", "Durable solver snapshots written.", float64(m.CheckpointsWritten.Load())},
		{"cimserve_resumes_total", "counter", "Solves continued from an on-disk checkpoint.", float64(m.Resumes.Load())},
		{"cimserve_resume_failures_total", "counter", "Checkpoints rejected as corrupt or mismatched (the job solved fresh).", float64(m.ResumeFailures.Load())},
		{"cimserve_jobs_recovered_total", "counter", "Jobs re-enqueued from the journal at boot.", float64(m.Recovered.Load())},
		{"cimserve_cache_hits_total", "counter", "Jobs answered from the result cache (no solve ran).", float64(m.CacheHits.Load())},
		{"cimserve_cache_misses_total", "counter", "Jobs that led a cacheable solve (populating the cache on success).", float64(m.CacheMisses.Load())},
		{"cimserve_cache_coalesced_total", "counter", "Jobs coalesced onto an identical in-flight solve.", float64(m.CacheCoalesced.Load())},
		{"cimserve_cache_entries", "gauge", "Results currently held by the cache.", float64(cacheEntries)},
		{"cimserve_cache_bytes", "gauge", "Marshalled bytes currently held by the cache.", float64(cacheBytes)},
		{"cimserve_solve_seconds_total", "counter", "Wall-clock seconds spent in completed solves.", secs},
		{"cimserve_solve_iterations_total", "counter", "Annealing iterations performed by completed solves.", iters},
		{"cimserve_solve_iterations_per_second", "gauge", "Aggregate annealing throughput over completed solves.", ips},
	} {
		e.metric(row.name, row.kind, row.help, row.v)
	}
	names, vals := m.problems.snapshot()
	families(e, "problem", vals, func(i int) string { return names[i] }, jobFamiliesFor("problem", "problem type", false))
	names, vals = m.tenants.snapshot()
	families(e, "tenant", vals, func(i int) string { return names[i] }, jobFamiliesFor("tenant", "tenant", true))
	if len(names) > 0 {
		e.printf("# HELP cimserve_queue_wait_seconds Submit-to-dispatch latency, by tenant.\n# TYPE cimserve_queue_wait_seconds histogram\n")
		for i, name := range names {
			h := &vals[i].queueWait
			cum := int64(0)
			for b, le := range queueWaitBuckets {
				cum += h.buckets[b].Load()
				e.printf("cimserve_queue_wait_seconds_bucket{tenant=%q,le=%q} %d\n", name, formatMetric(le), cum)
			}
			cum += h.buckets[len(queueWaitBuckets)].Load()
			e.printf("cimserve_queue_wait_seconds_bucket{tenant=%q,le=\"+Inf\"} %d\ncimserve_queue_wait_seconds_sum{tenant=%q} %s\ncimserve_queue_wait_seconds_count{tenant=%q} %d\n",
				name, cum, name, formatMetric(float64(h.sumNanos.Load())/1e9), name, h.count.Load())
		}
	}
	if m.FleetStats != nil {
		fs := m.FleetStats()
		e.metric("cimserve_fleet_nodes", "gauge", "Worker nodes currently registered with the coordinator.", float64(fs.Nodes))
		e.metric("cimserve_fleet_jobs_claimable", "gauge", "Offered jobs waiting for a worker to claim them.", float64(fs.Claimable))
		e.metric("cimserve_fleet_jobs_claimed", "gauge", "Offered jobs currently under a worker lease.", float64(fs.Claimed))
		e.metric("cimserve_jobs_reassigned_total", "counter", "Leases revoked (expiry, node death or re-registration); the job became claimable again.", float64(fs.Reassigned))
		e.metric("cimserve_fleet_stale_reports_total", "counter", "Worker calls rejected for naming a claim that no longer stands.", float64(fs.StaleDrops))
		families(e, "node", fs.PerNode, func(i int) string { return fs.PerNode[i].Node }, []family[fleet.NodeStats]{
			{"cimserve_fleet_node_jobs_claimed", "gauge", "Leases currently held, by node.", func(ns fleet.NodeStats) int64 { return int64(ns.Claimed) }},
			{"cimserve_fleet_node_jobs_completed_total", "counter", "Offers settled, by node.", func(ns fleet.NodeStats) int64 { return ns.Completed }},
			{"cimserve_fleet_node_jobs_reassigned_total", "counter", "Leases revoked, by node.", func(ns fleet.NodeStats) int64 { return ns.Reassigned }},
		})
	}
	return e.n, e.err
}

// WriteWorkerMetrics emits a fleet worker's /metrics body: its counters
// as families labeled with its node name, which the coordinator's
// registration guard keeps free of label injection.
func WriteWorkerMetrics(w io.Writer, node string, st fleet.WorkerStats) error {
	e := &expo{w: w}
	families(e, "node", []fleet.WorkerStats{st}, func(int) string { return node }, []family[fleet.WorkerStats]{
		{"cimserve_worker_jobs_claimed_total", "counter", "Jobs this worker claimed.", func(s fleet.WorkerStats) int64 { return s.Claimed }},
		{"cimserve_worker_jobs_completed_total", "counter", "Jobs this worker completed successfully.", func(s fleet.WorkerStats) int64 { return s.Completed }},
		{"cimserve_worker_jobs_failed_total", "counter", "Jobs this worker completed with an error.", func(s fleet.WorkerStats) int64 { return s.Failed }},
		{"cimserve_worker_resumes_total", "counter", "Solves resumed from a shipped checkpoint.", func(s fleet.WorkerStats) int64 { return s.Resumed }},
		{"cimserve_worker_checkpoints_shipped_total", "counter", "Checkpoints shipped to the coordinator.", func(s fleet.WorkerStats) int64 { return s.Shipped }},
		{"cimserve_worker_reregisters_total", "counter", "Times the worker re-registered after losing the coordinator.", func(s fleet.WorkerStats) int64 { return s.ReRegisters }},
	})
	return e.err
}

// formatMetric renders integers without an exponent and floats tersely.
func formatMetric(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
