package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"cimsa"
	"cimsa/internal/problem/isingprob"
	"cimsa/internal/serve"
)

// TestSmoke runs every workload untraced and traced with short windows
// and a 5,915-city tsp instance, and checks that each run measures every
// metric that applies to it, with no failed job.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := newRun(w.name, 1, 300*time.Millisecond, traced)
			r.setups, r.warmTraffic, r.tsp = 1, 0, "rl5915"
			if err := r.execute(t.TempDir()); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if r.values["fail_ratio"] != 0 {
				t.Errorf("%s traced=%v: failures %v", w.name, traced, r.failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, m := range want {
				v, ok := r.values[m.name]
				switch {
				case m.serveOnly && w.name == "tsp-pla85900":
					if ok {
						t.Errorf("%s measured serve-only %s", w.name, m.name)
					}
				case strings.Contains(m.name, ".p95"):
					// Too few samples in a short window; tailQuantile's
					// test covers the rule.
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w.name, traced, m.name)
				case !traced && v <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.name, v)
				}
			}
			line := r.resultLine()
			if len(line.Metrics) != len(want) || !line.Correct || line.Attempted < 1 {
				t.Errorf("%s traced=%v: result line %+v", w.name, traced, line)
			}
		}
	}
}

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json, which the
// benchmark's callers read, in step with the catalog the program reports.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %q, paths %q", file.Command, file.Paths)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: file %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("file lists %d+%d metrics, catalog %d+%d", len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range file.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound != c.bound {
			t.Errorf("end_to_end[%d]: file %+v, catalog %+v", i, m, c)
		}
	}
	for i, m := range file.PerLayer {
		if c := perLayer[i]; m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per_layer[%d]: file %+v, catalog %+v", i, m, c)
		}
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // descending: quantile must sort
		}
		return xs
	}
	if _, ok := tailQuantile(samples(181), 0.95); ok {
		t.Error("p95 of 181 samples reported with only 9 beyond it")
	}
	xs := samples(182)
	v, ok := tailQuantile(xs, 0.95)
	if !ok {
		t.Fatal("p95 of 182 samples not reported")
	}
	above := 0
	for _, x := range xs {
		if x > v {
			above++
		}
	}
	if above != minBeyond {
		t.Errorf("p95 = %v has %d samples beyond it, want %d", v, above, minBeyond)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsClippedMergedChildren(t *testing.T) {
	spans := []span{
		{Trace: "a", ID: 1, Name: "job", Start: 0, End: 100},
		{Trace: "a", ID: 2, Parent: 1, Name: "submit", Start: 10, End: 30},
		{Trace: "a", ID: 3, Parent: 1, Name: "stream", Start: 20, End: 40},
		// Starts before its parent and ends after it: only 90..100 counts.
		{Trace: "a", ID: 4, Parent: 1, Name: "fetch", Start: 90, End: 120},
		{Trace: "a", ID: 5, Parent: 3, Name: "queue_wait", Start: 5, End: 25},
	}
	st := summarize(spans)
	if got := st["job"].SelfMS; got != 60e-6 {
		t.Errorf("job self = %v ms, want 60 ns", got)
	}
	if got := st["stream"].SelfMS; got != 15e-6 {
		t.Errorf("stream self = %v ms, want 15 ns", got)
	}
	if got := st["fetch"].TotalMS; got != 30e-6 {
		t.Errorf("fetch total = %v ms, want 30 ns", got)
	}
}

func TestTimelineTilesTheSolve(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ev := func(level, iter int) cimsa.ProgressEvent {
		return cimsa.ProgressEvent{Level: level, Levels: 2, Iter: iter, Iters: 100}
	}
	marks := []mark{
		{at(10), ev(0, 0)}, {at(20), ev(0, 50)}, {at(30), ev(0, 100)},
		{at(45), ev(1, 0)}, {at(60), ev(1, 50)}, {at(80), ev(1, 100)},
	}
	tl, err := newTimeline(t0, at(90), marks)
	if err != nil {
		t.Fatal(err)
	}
	got := []time.Duration{tl.preAnneal(), tl.levelSetup(), tl.anneal(), tl.tail()}
	want := []time.Duration{10 * time.Millisecond, 15 * time.Millisecond, 55 * time.Millisecond, 10 * time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pre, setup, anneal, tail = %v, want %v", got, want)
	}
	if want := []time.Duration{15 * time.Millisecond, 20 * time.Millisecond}; !reflect.DeepEqual(tl.leafEpochs, want) {
		t.Errorf("leaf epochs %v, want %v", tl.leafEpochs, want)
	}
	tr := &tracer{}
	tl.addSpans(tr, "s", 0)
	var sum int64
	for _, s := range tr.spans {
		sum += s.End - s.Start
	}
	if sum != int64(90*time.Millisecond) {
		t.Errorf("spans cover %v of a 90ms solve", time.Duration(sum))
	}
}

// TestChecksFlagCorruption feeds the output checks a corrupted tour, a
// cached result that differs from its leader, wrong objectives and qubo
// bits that do not score what the job reported.
func TestChecksFlagCorruption(t *testing.T) {
	sp := newSpecStream(1, 0).make(tsp1k)
	report := func(tour []int) json.RawMessage {
		data, err := json.Marshal(cimsa.Report{N: len(tour), Tour: tour})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	done := serve.Status{ID: "j1", State: serve.StateDone, N: 4}
	good := &exchange{status: done, report: report([]int{0, 1, 2, 3})}
	if err := checkJob(sp, good, nil); err != nil {
		t.Fatalf("valid job flagged: %v", err)
	}
	dup := &exchange{status: done, report: report([]int{0, 1, 1, 3})}
	if err := checkJob(sp, dup, nil); err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Errorf("corrupted tour not flagged: %v", err)
	}
	cached := done
	cached.Cached = true
	leaders := map[string]*exchange{string(sp.body): good}
	if err := checkJob(sp, &exchange{status: cached, report: good.report}, leaders); err != nil {
		t.Errorf("cached copy of the leader flagged: %v", err)
	}
	if err := checkJob(sp, &exchange{status: cached, report: report([]int{1, 0, 2, 3})}, leaders); err == nil {
		t.Error("cached result differing from its leader not flagged")
	}
	cachedOff := cached
	cachedOff.Length = 1
	if err := checkJob(sp, &exchange{status: cachedOff, report: good.report}, leaders); err == nil {
		t.Error("cached objective differing from its leader's not flagged")
	}
	failed := done
	failed.State = serve.StateFailed
	if err := checkJob(sp, &exchange{status: failed}, nil); err == nil {
		t.Error("failed job not flagged")
	}

	ds := directs{}
	d, err := ds.get(sp.body)
	if err != nil {
		t.Fatal(err)
	}
	off := done
	off.Length = d.res.Objective * (1 + 1e-12)
	if err := checkResolve(sp.problem, off, nil, d); err == nil {
		t.Error("tsp objective off in the twelfth digit not flagged")
	}

	qsp := newSpecStream(1, 0).make(quboJob)
	q, err := ds.get(qsp.body)
	if err != nil {
		t.Fatal(err)
	}
	detail := q.res.Detail.(isingprob.QUBODetail)
	served := serve.Status{State: serve.StateDone, Length: detail.Objective}
	qreport := func(det isingprob.QUBODetail) json.RawMessage {
		data, err := json.Marshal(det)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if err := checkResolve(qsp.problem, served, qreport(detail), q); err != nil {
		t.Errorf("consistent qubo result flagged: %v", err)
	}
	flipped := detail
	flipped.Bits = append([]int8(nil), detail.Bits...)
	flipped.Bits[0] ^= 1
	if err := checkResolve(qsp.problem, served, qreport(flipped), q); err == nil {
		t.Error("qubo bits that do not score the reported objective not flagged")
	}
	wrong := detail
	wrong.Objective += 1e-3
	if err := checkResolve(qsp.problem, serve.Status{Length: wrong.Objective}, qreport(wrong), q); err == nil {
		t.Error("wrong qubo objective not flagged")
	}
	warm := &cimsa.Report{N: 4, Tour: []int{0, 1, 2, 3}}
	if err := checkSolve(&cimsa.Report{N: 4, Tour: []int{0, 2, 1, 3}}, warm); err == nil {
		t.Error("tour differing from the warm-up tour not flagged")
	}
}
