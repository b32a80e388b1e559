package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cimsa"
	"cimsa/internal/heuristics"
	"cimsa/internal/problem"
	"cimsa/internal/problem/isingprob"
	"cimsa/internal/problem/maxcutprob"
	"cimsa/internal/problem/tspprob"
	"cimsa/internal/serve"
	"cimsa/internal/tsplib"
)

// limits are cimserve's default request caps.
var limits = problem.Limits{MaxCities: 200000, MaxVertices: 100000, MaxEdges: 2000000, MaxSpins: 2048}

const (
	// clients is the closed-loop client count: each sends its next
	// request only after the previous one completes.
	clients = 2
	// sampleEvery picks the jobs re-solved directly after the window.
	sampleEvery = 10
	// journalAppends is how many Submitted+Finished pairs the traced run
	// times on a side journal.
	journalAppends = 200
)

var problems = []string{tspprob.Name, maxcutprob.Name, isingprob.Name, isingprob.QUBOName}

// stack is one in-process standalone cimserve, wired the way -state-dir
// wires it: a fsynced journal and per-job checkpoints every epoch, two
// solver slots, a 64-deep queue, served over a loopback listener.
//
// Finished jobs expire after one second (cimserve -ttl 1s) rather than
// the 15-minute default: a job keeps its task until it expires, and at a
// thousand jobs a second the default would hold gigabytes of 256-spin
// coupling matrices by the end of a run. Clients fetch each result as
// soon as its stream ends, well inside the second.
type stack struct {
	dir     string
	journal *serve.Journal
	sched   *serve.Scheduler
	srv     *httptest.Server
}

func startStack(cacheEntries int, solve serve.SolveFunc) (*stack, error) {
	dir, err := os.MkdirTemp("", "cimsa-bench-state-")
	if err != nil {
		return nil, err
	}
	j, _, err := serve.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sched := serve.NewScheduler(serve.Config{
		MaxConcurrent:   2,
		QueueDepth:      64,
		Journal:         j,
		CheckpointDir:   filepath.Join(dir, "checkpoints"),
		CheckpointEvery: 1,
		CacheEntries:    cacheEntries,
		ResultTTL:       time.Second,
		SweepEvery:      250 * time.Millisecond,
		Solve:           solve,
	})
	srv := serve.NewServer(sched)
	srv.Limits = limits
	return &stack{dir: dir, journal: j, sched: sched, srv: httptest.NewServer(srv.Handler())}, nil
}

func (s *stack) close() error {
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return errors.Join(s.sched.Shutdown(ctx), s.journal.Close(), os.RemoveAll(s.dir))
}

// client is one closed-loop caller over keep-alive HTTP.
type client struct {
	base string
	hc   *http.Client
}

// exchange is one job as its client saw it: POST /v1/jobs, the SSE
// stream up to its terminal frame, then GET /result. The four times cut
// the job into the submit, stream and fetch spans.
type exchange struct {
	start, submitted, streamed, fetched time.Time
	status                              serve.Status
	report                              json.RawMessage
	events, reconnects                  int
	resultBytes                         int
}

func (c *client) do(body []byte) (*exchange, error) {
	x := &exchange{start: time.Now()}
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	data, err := readBody(resp, http.StatusAccepted)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var st serve.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	x.submitted = time.Now()
	if x.events, x.reconnects, err = c.stream(st.ID); err != nil {
		return nil, fmt.Errorf("job %s events: %w", st.ID, err)
	}
	x.streamed = time.Now()
	resp, err = c.hc.Get(c.base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return nil, fmt.Errorf("job %s result: %w", st.ID, err)
	}
	if data, err = readBody(resp, http.StatusOK); err != nil {
		return nil, fmt.Errorf("job %s result: %w", st.ID, err)
	}
	var res struct {
		serve.Status
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("job %s result: %w", st.ID, err)
	}
	x.fetched = time.Now()
	x.status, x.report, x.resultBytes = res.Status, res.Report, len(data)
	return x, nil
}

// maxReconnects bounds how often one job's event stream is reopened; the
// waits before them double from a millisecond, about a second in all.
const maxReconnects = 10

// stream follows the job's SSE stream to its terminal frame and returns
// how many frames arrived and how often it had to reconnect. A stream
// can end without a terminal frame: the scheduler marks a job terminal
// before it publishes the terminal event, and a subscriber arriving in
// between gets a closed stream. Like an EventSource, the client then
// waits and reconnects with Last-Event-ID; the wait matters, because on
// a busy machine the publishing goroutine can sit descheduled for
// milliseconds.
func (c *client) stream(id string) (frames, reconnects int, err error) {
	lastID := ""
	for ; reconnects <= maxReconnects; reconnects++ {
		if reconnects > 0 {
			time.Sleep(time.Millisecond << (reconnects - 1))
		}
		req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
		if err != nil {
			return frames, reconnects, err
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		n, terminal, last, err := c.readStream(req)
		frames += n
		if last != "" {
			lastID = last
		}
		if err != nil || terminal {
			return frames, reconnects, err
		}
	}
	return frames, reconnects, fmt.Errorf("no terminal frame after %d reconnects", maxReconnects)
}

// readStream reads one SSE response until its terminal frame or its end.
func (c *client) readStream(req *http.Request) (frames int, terminal bool, lastID string, err error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, false, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false, "", fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			return frames, false, lastID, nil
		}
		if err != nil {
			return frames, false, lastID, err
		}
		line = strings.TrimSuffix(line, "\n")
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			lastID = v
			continue
		}
		typ, ok := strings.CutPrefix(line, "event: ")
		if !ok {
			continue
		}
		frames++
		switch typ {
		case "done", "failed", "canceled":
			// The server ends the stream after the terminal frame; read to
			// EOF so the connection goes back to the pool.
			_, err := io.Copy(io.Discard, br)
			return frames, true, lastID, err
		}
	}
}

func readBody(resp *http.Response, want int) ([]byte, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// seamLog is the traced runs' serve.Config.Solve: it times each solve
// from outside, timestamps the solver's progress events on their way to
// the scheduler's hook, and stats every checkpoint file the solve
// reports. It observes only; the solve itself is task.Solve unchanged.
type seamLog struct {
	mu   sync.Mutex
	byID map[string]*seamRec
}

type seamRec struct {
	problem    string
	start, end time.Time
	marks      []mark
	ckptWrites int
	ckptBytes  int64
	res        *problem.Result
}

func (l *seamLog) solve(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
	rec := &seamRec{problem: task.Problem()}
	// The hooks run on the solve goroutine, the only one touching rec
	// until it is published under l.mu below.
	if inner := run.Progress; inner != nil {
		run.Progress = func(ev problem.Progress) {
			rec.marks = append(rec.marks, mark{time.Now(), ev})
			inner(ev)
		}
	}
	inner := run.OnCheckpointWrite
	run.OnCheckpointWrite = func(path string) {
		rec.ckptWrites++
		if fi, err := os.Stat(path); err == nil {
			rec.ckptBytes += fi.Size()
		}
		if inner != nil {
			inner(path)
		}
	}
	rec.start = time.Now()
	res, err := task.Solve(ctx, run)
	rec.end = time.Now()
	rec.res = res
	// The scheduler names each job's checkpoint directory after the job.
	l.mu.Lock()
	l.byID[filepath.Base(run.CheckpointDir)] = rec
	l.mu.Unlock()
	return res, err
}

// records returns the solves logged so far, by job ID.
func (l *seamLog) records() map[string]*seamRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]*seamRec, len(l.byID))
	for id, rec := range l.byID {
		out[id] = rec
	}
	return out
}

// job is one request of the measured window.
type job struct {
	client, seq int
	sp          spec
	x           *exchange
	err         error
}

func (j *job) key() string { return fmt.Sprintf("client %d job %d", j.client, j.seq) }

// runServe is serve-mixed (distinct requests, cache off) or, with
// cacheHot, serve-cache-hot (eight requests round-robin, cache on).
func runServe(r *run, cacheHot bool) error {
	warmSpecs := warmSpecs(r.seed)
	cacheEntries := 0
	if cacheHot {
		warmSpecs, cacheEntries = cacheSpecs(r.seed), 256
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}, Timeout: 2 * time.Minute}
	defer hc.CloseIdleConnections()

	// Set up from scratch setupRuns times; the last stack serves the
	// window. Warm-up submits every warm spec once and counts in setup.
	var st *stack
	var seams *seamLog
	var warm []*exchange
	var setups []float64
	defer func() {
		if st != nil {
			// The state directory is thrown away; failing to close it
			// cannot change what the run measured.
			_ = st.close()
		}
	}()
	for i := 0; i < r.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
			st = nil
		}
		t0 := time.Now()
		var solve serve.SolveFunc
		if r.traced {
			seams = &seamLog{byID: map[string]*seamRec{}}
			solve = seams.solve
		}
		var err error
		if st, err = startStack(cacheEntries, solve); err != nil {
			return err
		}
		cl := &client{base: st.srv.URL, hc: hc}
		warm = warm[:0]
		for _, sp := range warmSpecs {
			x, err := cl.do(sp.body)
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", sp.problem, err)
			}
			if err := checkJob(sp, x, nil); err != nil {
				r.fail("warm-up "+x.status.ID, err)
			}
			warm = append(warm, x)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))
	var leaders map[string]*exchange
	if cacheHot {
		leaders = map[string]*exchange{}
		for i, sp := range warmSpecs {
			leaders[string(sp.body)] = warm[i]
		}
	}

	var next func(client int) spec
	if cacheHot {
		var n atomic.Int64
		next = func(int) spec { return warmSpecs[(n.Add(1)-1)%int64(len(warmSpecs))] }
	} else {
		streams := make([]*specStream, clients)
		for c := range streams {
			streams[c] = newSpecStream(r.seed, uint64(c))
		}
		next = func(c int) spec { return streams[c].next() }
	}

	// Warm traffic brings the heap and the expiring job set to their
	// steady size before the window opens; its jobs are checked, not timed.
	cl := &client{base: st.srv.URL, hc: hc}
	for _, j := range drive(cl, time.Now().Add(r.warmTraffic), next, leaders) {
		r.attempted++
		if j.err != nil {
			r.fail("warm traffic "+j.key(), j.err)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss := sampleRSS()
	start := time.Now()
	jobs := drive(cl, start.Add(r.window), next, leaders)
	runtime.ReadMemStats(&after)
	rss.finish(r)

	var done []*job
	var end time.Time
	for _, j := range jobs {
		r.attempted++
		if j.err != nil {
			r.fail(j.key(), j.err)
			continue
		}
		done = append(done, j)
		if j.x.fetched.After(end) {
			end = j.x.fetched
		}
	}
	if len(done) == 0 {
		return fmt.Errorf("every job failed")
	}
	setJobMetrics(r, done, end.Sub(start))
	setRuntimePerJob(r, &before, &after, len(jobs))

	directs, err := resolveSample(r, done)
	if err != nil {
		return err
	}
	// The warm specs are solved directly too: their served objectives are
	// checked like the sample's, and the direct layer calls reuse them.
	var warmTSP []*tsplib.Instance
	var warmReps []*cimsa.Report
	for i, sp := range warmSpecs {
		d, err := directs.get(sp.body)
		if err != nil {
			return fmt.Errorf("direct re-solve: %w", err)
		}
		if err := checkResolve(sp.problem, warm[i].status, warm[i].report, d); err != nil {
			r.fail("warm-up "+warm[i].status.ID, err)
		}
		if sp.problem != tspprob.Name {
			continue
		}
		var rep cimsa.Report
		if err := json.Unmarshal(warm[i].report, &rep); err != nil {
			return fmt.Errorf("warm-up tsp report: %w", err)
		}
		warmTSP = append(warmTSP, d.task.(*tspprob.Task).Instance())
		warmReps = append(warmReps, &rep)
	}
	setSolverCounts(r, warmReps)
	if !r.traced {
		// Every distinct tsp request solved directly — the warm-up ones and
		// the sampled ones, whose served tours matched — against the
		// classical reference tour, after the window.
		var ratios []float64
		for _, d := range directs {
			if t, ok := d.task.(*tspprob.Task); ok {
				_, ref := heuristics.Reference(t.Instance())
				ratios = append(ratios, d.res.Objective/ref)
			}
		}
		r.set("tour_ratio", median(ratios))
		return nil
	}

	recs := seams.records()
	traceJobs(r, done, recs)
	setSeamLayers(r, recs)
	setClusterLayers(r, warmTSP)
	if err := setTaskBuild(r, warmSpecs); err != nil {
		return err
	}
	if err := setCheckpointOverhead(r, warmSpecs, directs); err != nil {
		return err
	}
	return setJournalAppend(r, st.dir)
}

// drive runs the closed-loop clients until the deadline and returns
// every job they started. Each job is checked as soon as its client has
// it, so only the sampled jobs' reports outlive the loop.
func drive(cl *client, deadline time.Time, next func(int) spec, leaders map[string]*exchange) []*job {
	per := make([][]*job, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				j := &job{client: c, seq: seq, sp: next(c)}
				j.x, j.err = cl.do(j.sp.body)
				if j.err == nil {
					j.err = checkJob(j.sp, j.x, leaders)
				}
				if j.x != nil && seq%sampleEvery != 0 {
					// Only the sampled jobs' reports are checked again.
					j.x.report = nil
				}
				per[c] = append(per[c], j)
			}
		}()
	}
	wg.Wait()
	var all []*job
	for _, js := range per {
		all = append(all, js...)
	}
	return all
}

// queueWait is how long the job waited for a slot: until its solve
// started, or — served from the cache, never started — until it finished.
func queueWait(st serve.Status) time.Duration {
	if st.Started != nil {
		return st.Started.Sub(st.Submitted)
	}
	return st.Finished.Sub(st.Submitted)
}

func setJobMetrics(r *run, done []*job, elapsed time.Duration) {
	var lat, submit, fetch, wait, size, events []float64
	reconnects := 0
	cached := map[string]float64{}
	count := map[string]float64{}
	for _, j := range done {
		x := j.x
		lat = append(lat, ms(x.fetched.Sub(x.start)))
		submit = append(submit, ms(x.submitted.Sub(x.start)))
		fetch = append(fetch, ms(x.fetched.Sub(x.streamed)))
		wait = append(wait, ms(queueWait(x.status)))
		size = append(size, float64(x.resultBytes))
		events = append(events, float64(x.events))
		reconnects += x.reconnects
		count[j.sp.problem]++
		if x.status.Cached {
			cached[j.sp.problem]++
			cached[""]++
		}
	}
	r.set("latency_ms.p50", median(lat))
	if v, ok := tailQuantile(lat, 0.95); ok {
		r.set("latency_ms.p95", v)
	}
	r.set("jobs_per_s", float64(len(done))/elapsed.Seconds())
	r.set("serve.submit_ms.p50", median(submit))
	if v, ok := tailQuantile(submit, 0.95); ok {
		r.set("serve.submit_ms.p95", v)
	}
	r.set("serve.fetch_ms.p50", median(fetch))
	r.set("serve.queue_wait_ms.p50", median(wait))
	if v, ok := tailQuantile(wait, 0.95); ok {
		r.set("serve.queue_wait_ms.p95", v)
	}
	r.set("serve.result_bytes", median(size))
	r.set("serve.sse_events_per_job", mean(events))
	r.set("serve.sse_reconnects_per_job", float64(reconnects)/float64(len(done)))
	r.set("rescache.hit_ratio", cached[""]/float64(len(done)))
	for _, p := range problems {
		r.set("rescache.hit_ratio."+p, cached[p]/max(count[p], 1))
	}
}

// direct is one request solved directly, without the service.
type direct struct {
	task problem.Task
	res  *problem.Result
}

// directs memoizes direct solves by request body: serve-cache-hot's
// sample repeats eight bodies thousands of times.
type directs map[string]*direct

func (ds directs) get(body []byte) (*direct, error) {
	if d, ok := ds[string(body)]; ok {
		return d, nil
	}
	var req serve.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	task, err := serve.TaskFor(&req, limits)
	if err != nil {
		return nil, err
	}
	res, err := task.Solve(context.Background(), problem.Run{})
	if err != nil {
		return nil, err
	}
	d := &direct{task: task, res: res}
	ds[string(body)] = d
	return d, nil
}

// resolveSample re-solves every sampleEvery-th job of each client
// directly and checks the served objective against it.
func resolveSample(r *run, done []*job) (directs, error) {
	ds := directs{}
	for _, j := range done {
		if j.seq%sampleEvery != 0 {
			continue
		}
		d, err := ds.get(j.sp.body)
		if err != nil {
			return nil, fmt.Errorf("direct re-solve: %w", err)
		}
		if err := checkResolve(j.sp.problem, j.x.status, j.x.report, d); err != nil {
			r.fail(j.key(), err)
		}
	}
	return ds, nil
}

// traceJobs records each window job's spans: job ⊃ submit, stream,
// fetch; stream ⊃ queue_wait and solve (from the job's Status
// timestamps); solve ⊃ solve.seam, which holds a tsp solve's timeline.
func traceJobs(r *run, done []*job, seams map[string]*seamRec) {
	for _, j := range done {
		x := j.x
		trace := "job/" + x.status.ID
		root := r.tr.add(trace, 0, "job", x.start, x.fetched)
		r.tr.add(trace, root, "submit", x.start, x.submitted)
		stream := r.tr.add(trace, root, "stream", x.submitted, x.streamed)
		r.tr.add(trace, stream, "queue_wait", x.status.Submitted, x.status.Submitted.Add(queueWait(x.status)))
		if x.status.Started != nil {
			solve := r.tr.add(trace, stream, "solve", *x.status.Started, *x.status.Finished)
			if rec := seams[x.status.ID]; rec != nil {
				seam := r.tr.add(trace, solve, "solve.seam", rec.start, rec.end)
				if rec.problem == tspprob.Name {
					if tl, err := newTimeline(rec.start, rec.end, rec.marks); err == nil {
						tl.addSpans(r.tr, trace, seam)
					}
				}
			}
		}
		r.tr.add(trace, root, "fetch", x.streamed, x.fetched)
	}
	r.set("bench.span_coverage_pct", spanCoverage(r.tr.spans, "job"))
}

// setSeamLayers reports what the Solve seam saw, over every solve of the
// final stack, warm-up included (on serve-cache-hot only qubo solves
// inside the window).
func setSeamLayers(r *run, seams map[string]*seamRec) {
	solveMS := map[string][]float64{}
	iterRate := map[string][]float64{}
	var layers solveLayers
	var writes []float64
	var ckptBytes, ckptWrites int64
	for _, rec := range seams {
		if rec.res == nil {
			continue
		}
		d := rec.end.Sub(rec.start)
		solveMS[rec.problem] = append(solveMS[rec.problem], ms(d))
		if rec.problem != tspprob.Name {
			iterRate[rec.problem] = append(iterRate[rec.problem], float64(rec.res.Iterations)/d.Seconds())
			continue
		}
		writes = append(writes, float64(rec.ckptWrites))
		ckptWrites += int64(rec.ckptWrites)
		ckptBytes += rec.ckptBytes
		tl, err := newTimeline(rec.start, rec.end, rec.marks)
		if err != nil {
			r.fail("seam solve", err)
			continue
		}
		layers.add(tl, rec.res.Detail.(*cimsa.Report).Solver.Proposed)
	}
	for p, xs := range solveMS {
		r.set("serve.solve_ms.p50."+p, median(xs))
	}
	for p, xs := range iterRate {
		r.set(p+".iters_per_s", median(xs))
	}
	layers.set(r)
	if len(writes) > 0 {
		r.set("checkpoint.writes_per_job", mean(writes))
	}
	if ckptWrites > 0 {
		r.set("checkpoint.bytes_per_write", float64(ckptBytes)/float64(ckptWrites))
	}
}

// setCheckpointOverhead compares, on each tsp warm spec, a direct solve
// writing a checkpoint every epoch (the served setting) with the plain
// direct solve; one after the other, so slot contention stays out.
func setCheckpointOverhead(r *run, specs []spec, ds directs) error {
	var ratios []float64
	for _, sp := range specs {
		if sp.problem != tspprob.Name {
			continue
		}
		d, err := ds.get(sp.body)
		if err != nil {
			return err
		}
		dir, err := os.MkdirTemp("", "cimsa-bench-ckpt-")
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = d.task.Solve(context.Background(), problem.Run{CheckpointDir: dir, CheckpointEvery: 1})
		ckpt := time.Since(t0)
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		if err != nil {
			return fmt.Errorf("checkpointed solve: %w", err)
		}
		t0 = time.Now()
		if _, err := d.task.Solve(context.Background(), problem.Run{}); err != nil {
			return err
		}
		ratios = append(ratios, ckpt.Seconds()/time.Since(t0).Seconds())
	}
	r.set("checkpoint.overhead_pct", 100*(median(ratios)-1))
	return nil
}

// setJournalAppend times Journal.Submitted and Journal.Finished, each an
// fsynced append, on a side journal beside the live one.
func setJournalAppend(r *run, dir string) error {
	j, _, err := serve.OpenJournal(filepath.Join(dir, "side-journal.jsonl"))
	if err != nil {
		return err
	}
	defer j.Close()
	req := json.RawMessage(`{"qubo":{"generate":{"n":128,"density":0.2,"seed":1}}}`)
	var appends []float64
	for i := 0; i < journalAppends; i++ {
		id := fmt.Sprintf("side-%d", i)
		t0 := time.Now()
		if err := j.Submitted(id, "", t0, isingprob.QUBOName, req); err != nil {
			return err
		}
		t1 := time.Now()
		if err := j.Finished(id); err != nil {
			return err
		}
		appends = append(appends, ms(t1.Sub(t0)), ms(time.Since(t1)))
	}
	r.set("serve.journal_append_ms.p50", median(appends))
	return nil
}
