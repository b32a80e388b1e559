// Command bench is the repository's benchmark: the paper-scale clustered
// solve and the durable solve service, each timed from outside the
// program, with every output checked.
//
//	go run . -workload all -seed 1 -out /tmp/cimsa-bench
//	bash bench/run.sh --workload serve-mixed --seed 3 --seconds 20 --trace 1
//
// Without -trace, each selected workload runs twice, each time in a fresh
// process: untraced (the end-to-end metrics) and then traced (the
// per-layer metrics and the span file). The command prints one
// "workload metric value unit" line per metric and writes
// DIR/<workload>.json. With -trace 0 or 1 it runs one workload once, in
// this process, and ends its output with a one-line JSON result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is one run's measured window; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 30

// setupRuns is how often a run sets its workload up from scratch;
// setup_s is the median.
const setupRuns = 3

var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"tsp-pla85900", runTSP},
	{"serve-mixed", func(r *run) error { return runServe(r, false) }},
	{"serve-cache-hot", func(r *run) error { return runServe(r, true) }},
}

func main() {
	name := flag.String("workload", "all", "workload to run: tsp-pla85900, serve-mixed, serve-cache-hot or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", defaultSeconds, "length of each run's measured window, in seconds")
	trace := flag.Int("trace", -1, "0: one untraced run, 1: one traced run; unset: both, each in a fresh process")
	out := flag.String("out", filepath.Join(os.TempDir(), "cimsa-bench"), "directory for result and span files")
	flag.Parse()
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if *trace == 0 || *trace == 1 {
		r := newRun(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		err := r.execute(*out)
		if err != nil {
			fatal(err)
		}
		r.printLines(os.Stdout)
		if err := json.NewEncoder(os.Stdout).Encode(r.resultLine()); err != nil {
			fatal(err)
		}
		if len(r.failures) > 0 {
			os.Exit(1)
		}
		return
	}
	if *trace != -1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	var names []string
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	ok := true
	for _, w := range names {
		if err := orchestrate(w, *seed, *seconds, *out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}

// run is one measured run of one workload in this process.
type run struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	setups   int
	// warmTraffic is how long the serve clients run before the window
	// opens, so the heap and the expiring job set reach their steady size.
	warmTraffic time.Duration
	// tsp names the registry instance the tsp workload solves; tests
	// shrink it.
	tsp string

	tr        *tracer
	values    map[string]float64
	attempted int
	// failures maps each failed job or solve to its first reason.
	failures map[string]string
}

func newRun(workload string, seed uint64, window time.Duration, traced bool) *run {
	r := &run{
		workload: workload, seed: seed, window: window, traced: traced,
		setups: setupRuns, warmTraffic: 2 * time.Second, tsp: "pla85900",
		values: map[string]float64{}, failures: map[string]string{},
	}
	if traced {
		r.tr = &tracer{}
	}
	return r
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) fail(key string, err error) {
	if _, seen := r.failures[key]; !seen {
		r.failures[key] = err.Error()
	}
}

// execute runs the workload and writes its record (and, traced, its
// spans) under dir.
func (r *run) execute(dir string) error {
	var fn func(*run) error
	for _, w := range workloads {
		if w.name == r.workload {
			fn = w.run
		}
	}
	if fn == nil {
		return fmt.Errorf("unknown workload %q", r.workload)
	}
	if err := fn(r); err != nil {
		return err
	}
	r.set("fail_ratio", float64(len(r.failures))/float64(r.attempted))
	if r.traced {
		if err := writeSpans(filepath.Join(dir, r.workload+".trace.jsonl"), r.tr.spans); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(dir, r.workload+"."+r.mode()+".json"), r.record())
}

func (r *run) mode() string {
	if r.traced {
		return "traced"
	}
	return "untraced"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a single run prints last: the
// end-to-end metrics untraced, the per-layer metrics traced. A layer the
// workload does not run reads 0.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *run) resultLine() resultLine {
	list := endToEnd
	if r.traced {
		list = perLayer
	}
	out := resultLine{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: len(r.failures), Metrics: map[string]metricValue{}}
	for _, m := range list {
		out.Metrics[m.name] = metricValue{r.values[m.name], m.unit}
	}
	return out
}

// printLines prints every metric the run measured, catalogue order.
func (r *run) printLines(w io.Writer) {
	for _, list := range [][]metric{endToEnd, perLayer, extras} {
		for _, m := range list {
			if v, ok := r.values[m.name]; ok {
				fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
			}
		}
	}
	keys := make([]string, 0, len(r.failures))
	for k := range r.failures {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i == maxFailureLines {
			fmt.Fprintf(os.Stderr, "bench: %s: and %d more failures (see the record)\n", r.workload, len(keys)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED %s: %s\n", r.workload, k, r.failures[k])
	}
}

// maxFailureLines bounds the failures a run prints; the record keeps all.
const maxFailureLines = 20

// record is the machine-readable result of one run.
type record struct {
	Workload  string                 `json:"workload"`
	Mode      string                 `json:"mode"`
	Seed      uint64                 `json:"seed"`
	WindowS   float64                `json:"window_s"`
	SetupRuns int                    `json:"setup_runs"`
	Machine   machine                `json:"machine"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  map[string]string      `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Spans     map[string]spanStat    `json:"spans,omitempty"`
}

type machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func thisMachine() machine {
	commit, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		commit += "+dirty"
	}
	return machine{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit}
}

func (r *run) record() record {
	rec := record{
		Workload: r.workload, Mode: r.mode(), Seed: r.seed, WindowS: r.window.Seconds(), SetupRuns: r.setups,
		Machine: thisMachine(), Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: len(r.failures),
		Failures: r.failures, Metrics: map[string]metricValue{},
	}
	for name, v := range r.values {
		rec.Metrics[name] = metricValue{v, unitOf(name)}
	}
	if r.traced {
		rec.Spans = summarize(r.tr.spans)
	}
	return rec
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// orchestrate runs one workload untraced and then traced, each in a
// fresh process, and merges their records into DIR/<workload>.json.
func orchestrate(name string, seed uint64, seconds int, dir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	recs := map[string]record{}
	var childErr error
	for trace, mode := range []string{"untraced", "traced"} {
		path := filepath.Join(dir, name+"."+mode+".json")
		// A child that dies early must not leave an older run's record
		// to be merged.
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", dir)
		// The child's own lines are progress here; this process prints
		// the merged result.
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			childErr = errors.Join(childErr, fmt.Errorf("%s run: %w", mode, err))
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return errors.Join(childErr, err)
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return errors.Join(childErr, err)
		}
		recs[mode] = rec
	}
	un, tr := recs["untraced"], recs["traced"]
	overhead := 100 * (tr.Metrics["latency_ms.p50"].Value/un.Metrics["latency_ms.p50"].Value - 1)
	// Layer numbers come from the traced run; end-to-end numbers, and the
	// extras describing the whole run, from the untraced one.
	merged := map[string]metricValue{"bench.trace_overhead_pct": {overhead, "%"}}
	for k, v := range tr.Metrics {
		merged[k] = v
	}
	for _, list := range [][]metric{endToEnd, extras} {
		for _, m := range list {
			if v, ok := un.Metrics[m.name]; ok {
				merged[m.name] = v
			}
		}
	}
	for _, list := range [][]metric{endToEnd, perLayer, extras} {
		for _, m := range list {
			if v, ok := merged[m.name]; ok {
				fmt.Printf("%s %s %s %s\n", name, m.name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
			}
		}
	}
	err = writeJSON(filepath.Join(dir, name+".json"), map[string]any{
		"workload": name, "seed": seed, "window_s": seconds,
		"untraced": un, "traced": tr, "trace_overhead_pct": overhead,
	})
	return errors.Join(childErr, err)
}

// peakRSSMB is the process's peak resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rssSampler reads the process's resident set from /proc/self/statm every
// 50 ms until stopped. The median sample is steadier than the peak: on
// pla85900 the peak lands near 75 MB or near 100 MB depending on where a
// GC cycle falls, while the median stays within a few percent.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				data, err := os.ReadFile("/proc/self/statm")
				if err != nil {
					continue
				}
				f := strings.Fields(string(data))
				if len(f) < 2 {
					continue
				}
				if pages, err := strconv.Atoi(f[1]); err == nil {
					s.mb = append(s.mb, float64(pages*os.Getpagesize())/(1<<20))
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and reports the median and the peak resident
// set of the run.
func (s *rssSampler) finish(r *run) {
	close(s.stop)
	<-s.done
	if len(s.mb) > 0 {
		r.set("rss_mb.p50", median(s.mb))
	}
	r.set("peak_rss_mb", peakRSSMB())
}

// setRuntimePerJob reports allocation and GC per job over a window.
func setRuntimePerJob(r *run, before, after *runtime.MemStats, jobs int) {
	r.set("runtime.alloc_mb_per_job", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/float64(jobs))
	r.set("runtime.gc_per_job", float64(after.NumGC-before.NumGC)/float64(jobs))
}
