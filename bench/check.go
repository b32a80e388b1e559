package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"cimsa"
	"cimsa/internal/problem/isingprob"
	"cimsa/internal/problem/tspprob"
	"cimsa/internal/serve"
)

// checkSolve vets one direct solve of the tsp workload: a valid tour,
// byte-identical to the warm-up solve's (same instance, same seed).
func checkSolve(rep, warm *cimsa.Report) error {
	if err := rep.Tour.Validate(rep.N); err != nil {
		return err
	}
	if len(rep.Tour) != len(warm.Tour) {
		return fmt.Errorf("tour differs from the warm-up tour")
	}
	for i := range rep.Tour {
		if rep.Tour[i] != warm.Tour[i] {
			return fmt.Errorf("tour differs from the warm-up tour at position %d", i)
		}
	}
	return nil
}

// checkJob vets one served job as soon as its client has it: the job is
// done, a tsp tour visits every city once, and a cached result carries
// the objective and the byte-identical report of the job that solved it
// (leaders maps a request body to that job; nil when caching is off).
func checkJob(sp spec, x *exchange, leaders map[string]*exchange) error {
	if x.status.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", x.status.ID, x.status.State, x.status.Error)
	}
	if x.status.Cached {
		leader, ok := leaders[string(sp.body)]
		if !ok || x.status.Length != leader.status.Length || !bytes.Equal(x.report, leader.report) {
			return fmt.Errorf("job %s: cached result differs from its leader's", x.status.ID)
		}
		return nil
	}
	if sp.problem == tspprob.Name {
		var rep cimsa.Report
		if err := json.Unmarshal(x.report, &rep); err != nil {
			return fmt.Errorf("job %s: decoding tsp report: %w", x.status.ID, err)
		}
		if err := rep.Tour.Validate(x.status.N); err != nil {
			return fmt.Errorf("job %s: %w", x.status.ID, err)
		}
	}
	return nil
}

// checkResolve compares a served job with a direct solve of the same
// request. tsp, maxcut and ising solves are deterministic, so the
// objectives must be equal.
//
// qubo is checked for correctness instead of equality. QUBOTaskFromSpec
// sums the Ising fields while ranging over a Go map
// (internal/problem/isingprob/ising.go:302-305), so two builds of one
// request differ in the last ulp. On some instances that ulp also flips
// an acceptance and the anneal ends elsewhere, so two solves of one
// request can return different assignments. A served qubo result is
// correct when its energy is the direct build's Ising energy of its bits
// and its objective is that energy plus the instance's constant offset
// (the direct solve's objective minus its energy), both within 1e-9
// relative.
func checkResolve(problem string, served serve.Status, report json.RawMessage, d *direct) error {
	if problem != isingprob.QUBOName {
		if served.Length != d.res.Objective {
			return fmt.Errorf("served objective %v, direct re-solve %v", served.Length, d.res.Objective)
		}
		return nil
	}
	var got isingprob.QUBODetail
	if err := json.Unmarshal(report, &got); err != nil {
		return fmt.Errorf("decoding qubo report: %w", err)
	}
	m := d.task.(*isingprob.Task).Model()
	if len(got.Bits) != m.N {
		return fmt.Errorf("qubo assignment has %d bits for %d variables", len(got.Bits), m.N)
	}
	spins := make([]int8, m.N)
	for i, b := range got.Bits {
		spins[i] = 2*b - 1
	}
	want := d.res.Detail.(isingprob.QUBODetail)
	energy := m.Energy(spins)
	if !near(got.Energy, energy) || !near(got.Objective, energy+want.Objective-want.Energy) || !near(served.Length, got.Objective) {
		return fmt.Errorf("qubo objective %v and energy %v do not match the served bits (energy %v)", got.Objective, got.Energy, energy)
	}
	return nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
