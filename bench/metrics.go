package main

// metric describes one number the benchmark reports. BENCHMARK.json lists
// the endToEnd and perLayer catalogs with the same names, units and
// bounds (TestBenchmarkFileMatchesCatalog keeps them in step).
type metric struct {
	name, unit string
	// better is the direction of improvement. bound, for end-to-end
	// metrics only, is the share of the parent's median by which the
	// metric may worsen before a change counts as a regression.
	better string
	bound  float64
	// serveOnly marks a layer that only the serve workloads run; on
	// tsp-pla85900 the layer does not exist and reads 0.
	serveOnly bool
}

// endToEnd is what a user of the solver or the service sees, measured
// with tracing off. Every workload reports every one of them.
//
// The bounds follow the run-to-run spread on the 2-vCPU shared VM the
// benchmark was sized on (README.md, "Noise"). There the interquartile
// range of ten runs reached 0.19 of the median for the times, so they
// take the largest bound allowed; the median resident set reached 0.07.
// tour_ratio reached 0.05 on serve-cache-hot, whose seed picks just two
// tsp instances.
var endToEnd = []metric{
	{name: "latency_ms.p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "jobs_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "rss_mb.p50", unit: "MB", better: "lower", bound: 0.2},
	{name: "tour_ratio", unit: "ratio", better: "lower", bound: 0.1},
}

// perLayer comes from the traced run. README.md maps each one to the
// end-to-end metric it should move.
var perLayer = []metric{
	{name: "cluster.build_ms", unit: "ms", better: "lower"},
	{name: "heuristics.top_exact_ms", unit: "ms", better: "lower"},
	{name: "clustered.pre_anneal_ms", unit: "ms", better: "lower"},
	{name: "clustered.level_setup_ms", unit: "ms", better: "lower"},
	{name: "clustered.anneal_ms", unit: "ms", better: "lower"},
	{name: "clustered.leaf_epoch_ms.p50", unit: "ms", better: "lower"},
	{name: "clustered.tail_ms", unit: "ms", better: "lower"},
	{name: "clustered.proposals_per_s", unit: "1/s", better: "higher"},
	{name: "clustered.proposed", unit: "count", better: "lower"},
	{name: "clustered.accept_ratio", unit: "ratio", better: "higher"},
	{name: "clustered.weight_writes", unit: "count", better: "lower"},
	{name: "clustered.cycles", unit: "count", better: "lower"},
	{name: "clustered.boundary_bits", unit: "bits", better: "lower"},
	{name: "clustered.levels", unit: "count", better: "lower"},
	{name: "problem.task_build_ms.p50", unit: "ms", better: "lower"},
	{name: "runtime.alloc_mb_per_job", unit: "MB", better: "lower"},
	{name: "runtime.gc_per_job", unit: "count", better: "lower"},
	{name: "serve.submit_ms.p50", unit: "ms", better: "lower", serveOnly: true},
	{name: "serve.submit_ms.p95", unit: "ms", better: "lower", serveOnly: true},
	{name: "serve.journal_append_ms.p50", unit: "ms", better: "lower", serveOnly: true},
	{name: "serve.queue_wait_ms.p50", unit: "ms", better: "lower", serveOnly: true},
	{name: "serve.queue_wait_ms.p95", unit: "ms", better: "lower", serveOnly: true},
	{name: "serve.solve_ms.p50.tsp", unit: "ms", better: "lower", serveOnly: true},
	{name: "serve.solve_ms.p50.maxcut", unit: "ms", better: "lower", serveOnly: true},
	{name: "serve.solve_ms.p50.ising", unit: "ms", better: "lower", serveOnly: true},
	{name: "serve.solve_ms.p50.qubo", unit: "ms", better: "lower", serveOnly: true},
	{name: "maxcut.iters_per_s", unit: "1/s", better: "higher", serveOnly: true},
	{name: "ising.iters_per_s", unit: "1/s", better: "higher", serveOnly: true},
	{name: "qubo.iters_per_s", unit: "1/s", better: "higher", serveOnly: true},
	{name: "checkpoint.writes_per_job", unit: "count", better: "lower", serveOnly: true},
	{name: "checkpoint.bytes_per_write", unit: "bytes", better: "lower", serveOnly: true},
	{name: "checkpoint.overhead_pct", unit: "%", better: "lower", serveOnly: true},
	{name: "serve.sse_events_per_job", unit: "count", better: "lower", serveOnly: true},
	{name: "serve.sse_reconnects_per_job", unit: "ratio", better: "lower", serveOnly: true},
	{name: "serve.fetch_ms.p50", unit: "ms", better: "lower", serveOnly: true},
	{name: "serve.result_bytes", unit: "bytes", better: "lower", serveOnly: true},
	{name: "rescache.hit_ratio", unit: "ratio", better: "higher", serveOnly: true},
	{name: "rescache.hit_ratio.tsp", unit: "ratio", better: "higher", serveOnly: true},
	{name: "rescache.hit_ratio.maxcut", unit: "ratio", better: "higher", serveOnly: true},
	{name: "rescache.hit_ratio.ising", unit: "ratio", better: "higher", serveOnly: true},
	{name: "rescache.hit_ratio.qubo", unit: "ratio", better: "higher", serveOnly: true},
}

// extras are printed and recorded but left out of BENCHMARK.json, whose
// end-to-end metrics every workload must report, nonzero, measured and
// steady. These are workload-specific (p95 needs the samples only the
// serve workloads have), bimodal (the peak RSS, see rssSampler), usually
// 0 (fail_ratio, which the result line carries as failed/attempted),
// modelled rather than measured (hw_*: the simulated chip's time and
// energy), or need both runs of a workload (trace overhead).
var extras = []metric{
	{name: "latency_ms.p95", unit: "ms"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "fail_ratio", unit: "ratio"},
	{name: "hw_tts_s", unit: "s"},
	{name: "hw_energy_j", unit: "J"},
	{name: "bench.span_coverage_pct", unit: "%"},
	{name: "bench.trace_overhead_pct", unit: "%"},
}

// unitOf returns the unit of a catalogued metric.
func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer, extras} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("bench: uncatalogued metric " + name)
}
