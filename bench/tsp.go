package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"cimsa"
	"cimsa/internal/cluster"
	"cimsa/internal/geom"
	"cimsa/internal/heuristics"
	"cimsa/internal/problem/tspprob"
	"cimsa/internal/serve"
	"cimsa/internal/tsplib"
)

// runTSP is tsp-pla85900: one caller solving the paper's 85,900-city
// instance back to back with cimsa.Solve, hardware report on, no
// service in the way.
func runTSP(r *run) error {
	opts := cimsa.Options{Seed: r.seed, Workers: cimsa.WorkersAuto}
	var in *tsplib.Instance
	var warm *cimsa.Report
	var setups []float64
	for i := 0; i < r.setups; i++ {
		t0 := time.Now()
		inst, err := tsplib.Load(r.tsp)
		if err != nil {
			return err
		}
		rep, err := cimsa.Solve(inst, opts)
		if err != nil {
			return fmt.Errorf("warm-up solve: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if warm == nil {
			in, warm = inst, rep
		}
		if err := checkSolve(rep, warm); err != nil {
			r.fail(fmt.Sprintf("warm-up solve %d", i), err)
		}
	}
	r.set("setup_s", median(setups))

	var layers solveLayers
	var lat []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss := sampleRSS()
	start := time.Now()
	deadline := start.Add(r.window)
	var end time.Time
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		o := opts
		var marks []mark
		if r.traced {
			o.Progress = func(ev cimsa.ProgressEvent) { marks = append(marks, mark{time.Now(), ev}) }
		}
		r.attempted++
		key := fmt.Sprintf("solve %d", i)
		t0 := time.Now()
		rep, err := cimsa.Solve(in, o)
		end = time.Now()
		if err == nil {
			err = checkSolve(rep, warm)
		}
		if err != nil {
			r.fail(key, err)
			continue
		}
		lat = append(lat, ms(end.Sub(t0)))
		if r.traced {
			trace := fmt.Sprintf("solve/%d", i)
			tl, err := newTimeline(t0, end, marks)
			if err != nil {
				r.fail(key, err)
				continue
			}
			tl.addSpans(r.tr, trace, r.tr.add(trace, 0, "solve", t0, end))
			layers.add(tl, rep.Solver.Proposed)
		}
	}
	runtime.ReadMemStats(&after)
	rss.finish(r)
	if len(lat) == 0 {
		return fmt.Errorf("every solve failed")
	}
	r.set("latency_ms.p50", median(lat))
	r.set("jobs_per_s", float64(len(lat))/end.Sub(start).Seconds())
	setRuntimePerJob(r, &before, &after, r.attempted)
	setSolverCounts(r, []*cimsa.Report{warm})
	r.set("hw_tts_s", warm.Chip.LatencySeconds)
	r.set("hw_energy_j", warm.Chip.EnergyJ)
	if !r.traced {
		// The reference tour is the quality yardstick, not part of the
		// workload: computed once, after the window.
		_, ref := heuristics.Reference(in)
		r.set("tour_ratio", warm.Length/ref)
		return nil
	}
	layers.set(r)
	r.set("bench.span_coverage_pct", spanCoverage(r.tr.spans, "solve"))
	setClusterLayers(r, []*tsplib.Instance{in})
	body, err := json.Marshal(map[string]any{tspprob.Name: tspprob.Spec{
		Name: r.tsp, Options: tspprob.OptionsSpec{Seed: r.seed, Workers: cimsa.WorkersAuto}}})
	if err != nil {
		return err
	}
	return setTaskBuild(r, []spec{{tspprob.Name, body}})
}

// directReps is how often a direct layer call repeats per input; the
// layer metric is the median.
const directReps = 3

// setClusterLayers times the two solver layers a direct call can reach
// on each instance: the clustering, and the exact solve of the top-level
// centroids that it leaves.
func setClusterLayers(r *run, ins []*tsplib.Instance) {
	var build, exact []float64
	for _, in := range ins {
		var h *cluster.Hierarchy
		for i := 0; i < directReps; i++ {
			t0 := time.Now()
			var err error
			h, err = cluster.Build(in.Cities, cluster.Strategy{Kind: cluster.SemiFlex, P: 3})
			if err != nil {
				r.fail("cluster.Build "+in.Name, err)
				return
			}
			build = append(build, ms(time.Since(t0)))
		}
		top := h.Top()
		pts := make([]geom.Point, len(top))
		for i, n := range top {
			pts[i] = n.Centroid
		}
		sub := &tsplib.Instance{Name: "top", Metric: geom.Exact, Cities: pts}
		for i := 0; i < 10*directReps; i++ {
			t0 := time.Now()
			if _, _, err := heuristics.Exact(sub); err != nil {
				r.fail("heuristics.Exact "+in.Name, err)
				return
			}
			exact = append(exact, ms(time.Since(t0)))
		}
	}
	r.set("cluster.build_ms", median(build))
	r.set("heuristics.top_exact_ms", median(exact))
}

// setTaskBuild times serve.TaskFor, the request decode and instance
// build every submit pays, on each request body.
func setTaskBuild(r *run, specs []spec) error {
	var build []float64
	for _, sp := range specs {
		var req serve.SubmitRequest
		if err := json.Unmarshal(sp.body, &req); err != nil {
			return err
		}
		for i := 0; i < directReps; i++ {
			t0 := time.Now()
			if _, err := serve.TaskFor(&req, limits); err != nil {
				return fmt.Errorf("serve.TaskFor: %w", err)
			}
			build = append(build, ms(time.Since(t0)))
		}
	}
	r.set("problem.task_build_ms.p50", median(build))
	return nil
}

// spanCoverage is the share of the root spans' time that their children
// cover, in percent: how much of each solve or job the layers account for.
func spanCoverage(spans []span, root string) float64 {
	st := summarize(spans)[root]
	return 100 * (1 - st.SelfMS/st.TotalMS)
}
