package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cimsa"
	"cimsa/internal/fairsched"
	"cimsa/internal/problem"
	"cimsa/internal/problem/tspprob"
)

// FuzzSubmitDecode throws arbitrary request bodies at the submit
// decoder + registry dispatch. Invariants: no panic, no nil task with a
// nil error, and no task whose size exceeds its problem's cap — the
// caps must reject before any instance-sized allocation happens, so a
// surviving oversized task means the guard ran too late (or not at
// all). The seed corpus doubles as the CI fuzz-seed smoke set.
func FuzzSubmitDecode(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"generate":{"name":"legacy","n":60,"seed":2},"options":{"pmax":3,"skip_hardware":true}}`,
		`{"problem":"tsp","tsp":{"generate":{"n":50,"seed":1},"options":{"workers":-1}}}`,
		`{"maxcut":{"generate":{"n":16,"density":0.5,"seed":1},"sweeps":20,"seed":3}}`,
		`{"maxcut":{"n":3,"edges":[{"u":0,"v":1},{"u":1,"v":2,"w":2.5}]}}`,
		`{"ising":{"n":4,"j":[{"i":0,"j":1,"v":1}],"h":[{"i":0,"v":-1}],"sweeps":10}}`,
		`{"ising":{"generate":{"n":8,"density":0.5,"seed":3},"algorithm":"sca"}}`,
		`{"qubo":{"n":3,"q":[{"i":0,"j":0,"v":-1},{"i":0,"j":1,"v":2}]}}`,
		`{"qubo":{"generate":{"n":6,"density":0.4,"seed":9}}}`,
		// Malformed / hostile shapes the decoder must reject cleanly.
		`{"problem":"nope"}`,
		`{"problem":"maxcut"}`,
		`{"problem":"tsp","maxcut":{"generate":{"n":4,"density":1,"seed":0}}}`,
		`{"tsp":{},"maxcut":{}}`,
		`{"name":"x","maxcut":{"generate":{"n":4,"density":1,"seed":0}}}`,
		`{"maxcut":{"generate":{"n":2000000000,"density":1,"seed":0}}}`,
		`{"maxcut":{"n":4,"edges":[{"u":0,"v":9}]}}`,
		`{"ising":{"n":1000000,"j":[{"i":999999,"j":0,"v":1}]}}`,
		`{"ising":{"n":4,"j":[{"i":7,"j":1,"v":1}]}}`,
		`{"ising":{"n":4,"j":[{"i":1,"j":1,"v":1}]}}`,
		`{"ising":{"n":4,"algorithm":"bogus"}}`,
		`{"qubo":{"generate":{"n":-5,"density":2,"seed":0}}}`,
		`{"qubo":{"n":2,"q":[{"i":0,"j":5,"v":1}]}}`,
		`{"maxcut":{"unknown_field":1}}`,
		`{"ising":[1,2,3]}`,
		`{"maxcut":"not-an-object"}`,
		`not json at all`,
		// Fabric selection: valid kinds, the unknown-kind reject, the
		// strict-decode 400s for misspelled or mistyped fabric sections.
		`{"problem":"tsp","tsp":{"generate":{"n":50,"seed":1},"options":{"fabric":{"kind":"mram"}}}}`,
		`{"problem":"tsp","tsp":{"generate":{"n":50,"seed":1},"options":{"fabric":{"kind":"fefet","seed":7}}}}`,
		`{"problem":"tsp","tsp":{"generate":{"n":50,"seed":1},"options":{"fabric":{"kind":"ecram"}}}}`,
		`{"problem":"tsp","tsp":{"generate":{"n":50,"seed":1},"options":{"fabric":{"kin":"sram"}}}}`,
		`{"problem":"tsp","tsp":{"generate":{"n":50,"seed":1},"options":{"fabric":{"kind":"sram","sead":3}}}}`,
		`{"problem":"tsp","tsp":{"generate":{"n":50,"seed":1},"options":{"fabric":"mram"}}}`,
		`{"problem":"tsp","tsp":{"generate":{"n":50,"seed":1},"options":{"fabric":["sram"]}}}`,
		`{"problem":"tsp","tsp":{"generate":{"n":50,"seed":1},"options":{"fabric":{"kind":"clean","seed":-1}}}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	lim := problem.Limits{MaxCities: 2000, MaxVertices: 256, MaxEdges: 4096, MaxSpins: 64}
	srv := &Server{Limits: lim}
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req SubmitRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		task, err := srv.buildTask(&req)
		if err != nil {
			if task != nil {
				t.Fatalf("buildTask returned both a task and %v", err)
			}
			return
		}
		if task == nil {
			t.Fatal("buildTask returned nil task with nil error")
		}
		if task.InstanceHash() == "" {
			t.Fatalf("%s task has an empty instance hash", task.Problem())
		}
		var cap int
		switch task.Problem() {
		case "tsp":
			cap = lim.MaxCities
		case "maxcut":
			cap = lim.MaxVertices
		case "ising", "qubo":
			cap = lim.MaxSpins
		default:
			t.Fatalf("task for unregistered problem %q", task.Problem())
		}
		if task.Size() > cap {
			t.Fatalf("%s task of size %d survived cap %d", task.Problem(), task.Size(), cap)
		}
		_ = task.Validate()
	})
}

// FuzzTenantHeader throws hostile X-Tenant values at the scheduler's
// lane resolution. Invariants: no panic; every admitted job lands on a
// lane whose name passes ValidName (so the Prometheus exposition can
// never be label-injected); any value ValidName rejects — newlines,
// quotes, label syntax, oversized strings — folds into the default
// lane rather than minting one. The HTTP handler 400s these before
// submit; this proves the layer below stays safe even without it.
func FuzzTenantHeader(f *testing.F) {
	seeds := []string{
		"", "default", "acme", "a", "dot.dash-under_score",
		strings.Repeat("x", 64), strings.Repeat("x", 65),
		"has space", "semi;colon", "new\nline", "tab\there", "nul\x00byte",
		"ünicode", "emoji\U0001F600", `quote"inject`, "crlf\r\n", "/slash",
		`evil",other="1`, "{tenant=\"x\"}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	instant := func(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
		return &problem.Result{Problem: task.Problem(), Instance: task.Label(), N: task.Size(), Objective: 1}, nil
	}
	sched := NewScheduler(Config{MaxConcurrent: 2, QueueDepth: 64, Solve: instant, SweepEvery: time.Hour})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
	})
	in := cimsa.GenerateInstance("tenant-fuzz", 10, 1)
	var n atomic.Int64
	f.Fuzz(func(t *testing.T, tenant string) {
		_ = n.Add(1)
		job, err := sched.Submit(Spec{Tenant: tenant, Task: tspprob.New(in, cimsa.Options{})})
		if err != nil {
			if isRejection(err) {
				return
			}
			t.Fatalf("Submit as tenant %q: unexpected error %v", tenant, err)
		}
		if !fairsched.ValidName(job.Tenant) {
			t.Fatalf("tenant %q admitted onto exposition-unsafe lane %q", tenant, job.Tenant)
		}
		if !fairsched.ValidName(tenant) && tenant != "" && job.Tenant != fairsched.DefaultTenant {
			t.Fatalf("hostile tenant %q minted lane %q instead of folding to default", tenant, job.Tenant)
		}
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("fuzz job for tenant %q never finished", tenant)
		}
	})
}

// isRejection mirrors the HTTP layer's 429 class.
func isRejection(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrTenantQueueFull) || errors.Is(err, ErrRateLimited)
}
