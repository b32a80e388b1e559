package serve

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cimsa"
	"cimsa/internal/anneal"
	"cimsa/internal/ising"
	"cimsa/internal/maxcut"
	"cimsa/internal/problem"
	"cimsa/internal/problem/isingprob"
)

func postRaw(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// Max-Cut over HTTP end to end: submit → SSE → result, with the served
// cut bit-identical to maxcut.Solve on the same graph, sweeps and seed.
func TestMaxCutServiceEndToEnd(t *testing.T) {
	direct, err := maxcut.Solve(maxcut.Random(64, 0.25, 9), 150, 4)
	if err != nil {
		t.Fatal(err)
	}

	_, base := newTestServer(t, Config{MaxConcurrent: 2, QueueDepth: 8})
	resp := postRaw(t, base+"/v1/jobs",
		`{"maxcut":{"name":"mc-e2e","generate":{"n":64,"density":0.25,"seed":9},"sweeps":150,"seed":4}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	st := decodeJSON[Status](t, resp)
	if st.Problem != "maxcut" || st.Instance != "mc-e2e" || st.N != 64 {
		t.Fatalf("submit status %+v", st)
	}

	final := pollState(t, base, st.ID, StateDone, time.Minute)
	if final.Length != direct.Cut {
		t.Fatalf("served cut %v != direct maxcut.Solve cut %v", final.Length, direct.Cut)
	}
	if final.OptimalRatio != direct.Ratio {
		t.Fatalf("served ratio %v != direct %v", final.OptimalRatio, direct.Ratio)
	}

	frames := getEvents(t, base+"/v1/jobs/"+st.ID+"/events", "")
	if len(frames) == 0 || frames[len(frames)-1].event != "done" {
		t.Fatalf("SSE stream did not end with done: %+v", frames)
	}

	type maxcutResult struct {
		Status
		Report maxcut.Result `json:"report"`
	}
	res := decodeJSON[maxcutResult](t, mustGet(t, base+"/v1/jobs/"+st.ID+"/result"))
	if res.Report.Cut != direct.Cut {
		t.Fatalf("result cut %v != direct %v", res.Report.Cut, direct.Cut)
	}
	if !reflect.DeepEqual(res.Report.Assign, direct.Assign) {
		t.Fatal("served partition diverges from the direct solve")
	}
}

// Ising over HTTP end to end: an explicit small spin glass must anneal
// to the exact spins and energy the anneal package produces directly
// with the same sweeps and seed.
func TestIsingServiceEndToEnd(t *testing.T) {
	m := ising.NewModel(6)
	m.SetJ(0, 1, 1)
	m.SetJ(1, 2, -1.5)
	m.SetJ(2, 3, 0.75)
	m.SetJ(3, 4, -0.5)
	m.SetJ(4, 5, 1.25)
	m.SetJ(0, 5, -2)
	m.H[0] = 0.5
	m.H[3] = -0.25
	spins := anneal.RandomSpins(6, 3)
	directRes, err := anneal.IsingContext(context.Background(), m, spins, anneal.Options{Sweeps: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	directEnergy := m.Energy(spins)

	_, base := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 4})
	resp := postRaw(t, base+"/v1/jobs",
		`{"ising":{"name":"sg-e2e","n":6,
		  "j":[{"i":0,"j":1,"v":1},{"i":1,"j":2,"v":-1.5},{"i":2,"j":3,"v":0.75},
		       {"i":3,"j":4,"v":-0.5},{"i":4,"j":5,"v":1.25},{"i":0,"j":5,"v":-2}],
		  "h":[{"i":0,"v":0.5},{"i":3,"v":-0.25}],
		  "sweeps":80,"seed":3}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	st := decodeJSON[Status](t, resp)
	if st.Problem != "ising" || st.N != 6 {
		t.Fatalf("submit status %+v", st)
	}
	final := pollState(t, base, st.ID, StateDone, time.Minute)
	if final.Length != directEnergy {
		t.Fatalf("served energy %v != direct %v", final.Length, directEnergy)
	}

	type isingResult struct {
		Status
		Report isingprob.IsingDetail `json:"report"`
	}
	res := decodeJSON[isingResult](t, mustGet(t, base+"/v1/jobs/"+st.ID+"/result"))
	if !reflect.DeepEqual(res.Report.Spins, spins) {
		t.Fatalf("served spins %v != direct %v", res.Report.Spins, spins)
	}
	if res.Report.Energy != directEnergy || res.Report.BestEnergy != directRes.Energy {
		t.Fatalf("served energies %v/%v != direct %v/%v",
			res.Report.Energy, res.Report.BestEnergy, directEnergy, directRes.Energy)
	}
}

// QUBO over HTTP end to end against the adapter's direct Solve: same
// payload, same seed, bit-identical bits and objective.
func TestQUBOServiceEndToEnd(t *testing.T) {
	spec := &isingprob.QUBOSpec{
		N: 4,
		Q: []isingprob.CouplingSpec{
			{I: 0, J: 0, V: -1}, {I: 1, J: 1, V: -1}, {I: 2, J: 2, V: 2},
			{I: 0, J: 1, V: 2}, {I: 1, J: 3, V: -1.5}, {I: 2, J: 3, V: 0.5},
		},
		Sweeps: 60, Seed: 5,
	}
	task, err := isingprob.QUBOTaskFromSpec(spec, problem.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := task.Solve(context.Background(), problem.Run{})
	if err != nil {
		t.Fatal(err)
	}
	directDetail := direct.Detail.(isingprob.QUBODetail)

	_, base := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 4})
	resp := postRaw(t, base+"/v1/jobs",
		`{"qubo":{"n":4,
		  "q":[{"i":0,"j":0,"v":-1},{"i":1,"j":1,"v":-1},{"i":2,"j":2,"v":2},
		       {"i":0,"j":1,"v":2},{"i":1,"j":3,"v":-1.5},{"i":2,"j":3,"v":0.5}],
		  "sweeps":60,"seed":5}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	st := decodeJSON[Status](t, resp)
	if st.Problem != "qubo" {
		t.Fatalf("submit status %+v", st)
	}
	final := pollState(t, base, st.ID, StateDone, time.Minute)
	if final.Length != direct.Objective {
		t.Fatalf("served objective %v != direct %v", final.Length, direct.Objective)
	}

	type quboResult struct {
		Status
		Report isingprob.QUBODetail `json:"report"`
	}
	res := decodeJSON[quboResult](t, mustGet(t, base+"/v1/jobs/"+st.ID+"/result"))
	if !reflect.DeepEqual(res.Report, directDetail) {
		t.Fatalf("served detail %+v != direct %+v", res.Report, directDetail)
	}
}

// A journal mixing problem types — including a literal pre-registry
// TSP-only record with no "problem" field — must replay every job
// through the registry on boot, and the recovered results must match
// direct solves.
func TestJournalReplayMixedProblems(t *testing.T) {
	stateDir := t.TempDir()
	lines := strings.Join([]string{
		// Written by a pre-registry server: no problem field, legacy
		// top-level TSP schema. This exact shape must keep decoding.
		`{"op":"submit","id":"j0001-old000","submitted":"2026-01-02T03:04:05Z","request":{"generate":{"name":"old-style","n":60,"seed":2},"options":{"pmax":3,"skip_hardware":true}}}`,
		`{"op":"submit","id":"j0002-mc0000","problem":"maxcut","submitted":"2026-01-02T03:04:06Z","request":{"maxcut":{"generate":{"n":32,"density":0.3,"seed":7},"sweeps":50,"seed":1}}}`,
		`{"op":"submit","id":"j0003-is0000","problem":"ising","submitted":"2026-01-02T03:04:07Z","request":{"ising":{"generate":{"n":12,"density":0.5,"seed":3},"sweeps":40,"seed":2}}}`,
		// Written by a tenancy-aware server: the tenant field must
		// survive replay and the job must recover onto its lane.
		`{"op":"submit","id":"j0004-tn0000","problem":"maxcut","tenant":"acme","submitted":"2026-01-02T03:04:08Z","request":{"maxcut":{"generate":{"n":32,"density":0.3,"seed":7},"sweeps":50,"seed":1}}}`,
	}, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(stateDir, "journal.jsonl"), []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, sched, entries := bootServer(t, stateDir)
	if len(entries) != 4 {
		t.Fatalf("replay found %d entries, want 4", len(entries))
	}
	if entries[0].Problem != "" {
		t.Fatalf("legacy record grew a problem field: %q", entries[0].Problem)
	}
	if entries[0].Tenant != "" {
		t.Fatalf("pre-tenancy record grew a tenant field: %q", entries[0].Tenant)
	}
	if entries[3].Tenant != "acme" {
		t.Fatalf("tenanted record replayed tenant %q, want acme", entries[3].Tenant)
	}
	if got := srv.Recover(entries); got != 4 {
		t.Fatalf("Recover re-enqueued %d jobs, want 4", got)
	}

	wantTSP, err := cimsa.Solve(cimsa.GenerateInstance("old-style", 60, 2),
		cimsa.Options{PMax: 3, SkipHardware: true})
	if err != nil {
		t.Fatal(err)
	}
	wantCut, err := maxcut.Solve(maxcut.Random(32, 0.3, 7), 50, 1)
	if err != nil {
		t.Fatal(err)
	}

	for id, wantProblem := range map[string]string{
		"j0001-old000": "tsp",
		"j0002-mc0000": "maxcut",
		"j0003-is0000": "ising",
		"j0004-tn0000": "maxcut",
	} {
		job, ok := sched.Get(id)
		if !ok {
			t.Fatalf("recovered job %s lost its ID", id)
		}
		st := waitTerminal(t, job)
		if st.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", id, st.State, st.Error)
		}
		if st.Problem != wantProblem {
			t.Fatalf("job %s recovered as problem %q, want %q", id, st.Problem, wantProblem)
		}
		// Pre-tenancy records recover onto the default lane; tenanted
		// records keep their lane.
		wantTenant := "default"
		if id == "j0004-tn0000" {
			wantTenant = "acme"
		}
		if st.Tenant != wantTenant {
			t.Fatalf("job %s recovered under tenant %q, want %q", id, st.Tenant, wantTenant)
		}
	}

	tspJob, _ := sched.Get("j0001-old000")
	rep := tspJob.Result().Detail.(*cimsa.Report)
	if rep.Length != wantTSP.Length || !reflect.DeepEqual(rep.Tour, wantTSP.Tour) {
		t.Fatal("legacy TSP record replayed to a different result than a direct solve")
	}
	mcJob, _ := sched.Get("j0002-mc0000")
	if got := mcJob.Result().Objective; got != wantCut.Cut {
		t.Fatalf("recovered maxcut cut %v != direct %v", got, wantCut.Cut)
	}
	if got := sched.Metrics.Problem("maxcut").Done.Load(); got != 2 {
		t.Fatalf("maxcut done counter %d after recovery, want 2", got)
	}
	if got := sched.Metrics.Tenant("default").Done.Load(); got != 3 {
		t.Fatalf("default-lane done counter %d after recovery, want 3", got)
	}
	if got := sched.Metrics.Tenant("acme").Done.Load(); got != 1 {
		t.Fatalf("acme-lane done counter %d after recovery, want 1", got)
	}
}

// A repeated qubo submission must be answered from the result cache:
// one request always builds the same Ising image and hashes the same.
// The generated Q has fractional entries touching every spin many
// times, so an order-dependent build would hash apart.
func TestQUBORepeatIsCacheHit(t *testing.T) {
	sched, base := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 8, CacheEntries: 16})
	const body = `{"qubo":{"generate":{"n":40,"density":0.7,"seed":11},"sweeps":40,"seed":5}}`
	var first Status
	for k := 0; k < 3; k++ {
		resp := postRaw(t, base+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d returned %d", k, resp.StatusCode)
		}
		st := pollState(t, base, decodeJSON[Status](t, resp).ID, StateDone, time.Minute)
		if k == 0 {
			first = st
			continue
		}
		if !st.Cached {
			t.Fatalf("repeat %d of an identical qubo request missed the cache", k)
		}
		if st.Length != first.Length {
			t.Fatalf("repeat %d objective %v, first %v", k, st.Length, first.Length)
		}
	}
	if hits, misses := sched.Metrics.CacheHits.Load(), sched.Metrics.CacheMisses.Load(); hits != 2 || misses != 1 {
		t.Fatalf("cache hits=%d misses=%d, want 2/1", hits, misses)
	}
}

// overflowBodies pass every range and sign check but carry weights
// whose doubled absolute sum overflows float64. Solving them used to
// produce an infinite objective that no result frame could marshal.
var overflowBodies = []string{
	`{"maxcut":{"n":3,"edges":[{"u":0,"v":1,"w":1.7e308},{"u":0,"v":1,"w":1.7e308},{"u":1,"v":2,"w":1.7e308}]}}`,
	`{"maxcut":{"n":2,"edges":[{"u":0,"v":1,"w":1e308}]}}`,
	`{"ising":{"n":3,"j":[{"i":0,"j":1,"v":1.7e308},{"i":1,"j":2,"v":-1.7e308}]}}`,
	`{"ising":{"n":2,"h":[{"i":0,"v":1e308},{"i":1,"v":-1e308}],"algorithm":"sca"}}`,
	`{"qubo":{"n":2,"q":[{"i":0,"j":1,"v":1.7e308},{"i":1,"j":0,"v":1.7e308}]}}`,
	`{"qubo":{"n":3,"q":[{"i":0,"j":0,"v":1.7e308},{"i":1,"j":1,"v":-1.7e308}]}}`,
}

// Overflowing weights are a clean 400 at submit; weights just inside
// the bound solve to a result that marshals.
func TestOverflowingWeightsRejected(t *testing.T) {
	_, base := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 4})
	for _, body := range overflowBodies {
		resp := postRaw(t, base+"/v1/jobs", body)
		msg := decodeJSON[map[string]any](t, resp)
		if e, _ := msg["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(e, "overflows") {
			t.Errorf("body %s returned %d %v, want 400 naming the overflow", body, resp.StatusCode, msg)
		}
	}

	for _, body := range []string{
		`{"maxcut":{"n":3,"edges":[{"u":0,"v":1,"w":4e307},{"u":1,"v":2,"w":4e307}],"sweeps":5,"seed":1}}`,
		`{"ising":{"n":3,"j":[{"i":0,"j":1,"v":4e307}],"h":[{"i":2,"v":-4e307}],"sweeps":5,"seed":1}}`,
		`{"qubo":{"n":2,"q":[{"i":0,"j":0,"v":-4e307},{"i":0,"j":1,"v":4e307}],"sweeps":5,"seed":1}}`,
	} {
		resp := postRaw(t, base+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("body %s returned %d, want 202", body, resp.StatusCode)
		}
		st := decodeJSON[Status](t, resp)
		pollState(t, base, st.ID, StateDone, time.Minute)
		res := mustGet(t, base+"/v1/jobs/"+st.ID+"/result")
		if got := decodeJSON[map[string]any](t, res); res.StatusCode != http.StatusOK || got["report"] == nil {
			t.Fatalf("body %s: result %d %v, want a full report", body, res.StatusCode, got)
		}
	}
}
