package faultinject

import (
	"context"
	"reflect"
	"testing"
	"time"

	"cimsa"
	"cimsa/internal/problem/tspprob"
	"cimsa/internal/serve"
)

// solveThroughService submits one real solve and waits for its report,
// while a sibling job on the other slot is cancelled mid-flight — the
// service-level churn that must never perturb a job's own result.
func solveThroughService(t *testing.T, sched *serve.Scheduler, n int, opts cimsa.Options) *cimsa.Report {
	t.Helper()
	sibling, err := sched.Submit(serve.Spec{Task: tspprob.New(cimsa.GenerateInstance("sibling", n, 99), opts)})
	if err != nil {
		t.Fatal(err)
	}
	job, err := sched.Submit(serve.Spec{Task: tspprob.New(cimsa.GenerateInstance("det", n, 7), opts)})
	if err != nil {
		t.Fatal(err)
	}
	// Let the sibling get some real annealing in, then kill it while the
	// job under test is (typically) mid-solve on the other slot.
	time.Sleep(5 * time.Millisecond)
	sched.Cancel(sibling.ID)
	select {
	case <-job.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("solve job never finished")
	}
	select {
	case <-sibling.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("cancelled sibling never finished")
	}
	st := job.Status()
	if st.State != serve.StateDone {
		t.Fatalf("solve job ended %s (%s)", st.State, st.Error)
	}
	return job.Result().Detail.(*cimsa.Report)
}

// Real solver through the real service: the same seed must produce
// bit-identical tours for every worker-pool size, even with sibling
// jobs being cancelled around it. This pins the facade promise
// ("every worker count produces bit-identical results") at the service
// boundary, where the scheduler injects its own Progress hook.
func TestServiceSolveBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const n = 400
	sched := serve.NewScheduler(serve.Config{
		MaxConcurrent: 2, QueueDepth: 16, SweepEvery: time.Hour,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
	}()

	var base *cimsa.Report
	for _, workers := range []int{1, 2, 4} {
		opts := cimsa.Options{Seed: 11, Parallel: true, Workers: workers, SkipHardware: true}
		rep := solveThroughService(t, sched, n, opts)
		if base == nil {
			base = rep
			if base.Length <= 0 || len(base.Tour) != n {
				t.Fatalf("degenerate baseline report: length %v, tour %d", base.Length, len(base.Tour))
			}
			continue
		}
		if rep.Length != base.Length {
			t.Fatalf("workers=%d: length %v != baseline %v", workers, rep.Length, base.Length)
		}
		if !reflect.DeepEqual(rep.Tour, base.Tour) {
			t.Fatalf("workers=%d: tour diverges from baseline", workers)
		}
		if !reflect.DeepEqual(rep.Solver, base.Solver) {
			t.Fatalf("workers=%d: solver stats diverge: %+v vs %+v", workers, rep.Solver, base.Solver)
		}
	}
}

// Restarts through the service must match a direct library call
// exactly: the best-of-replicas tour AND the summed work counters (the
// stats-conservation contract — the energy model sees total work, and
// the service's Progress injection must not change any of it).
func TestServiceRestartsMatchDirectSolve(t *testing.T) {
	const n = 400
	in := cimsa.GenerateInstance("restarts", n, 21)
	opts := cimsa.Options{Seed: 5, Restarts: 2, SkipHardware: true}
	direct, err := cimsa.Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Solver.Iterations <= 0 {
		t.Fatalf("direct solve reports no work: %+v", direct.Solver)
	}

	sched := serve.NewScheduler(serve.Config{
		MaxConcurrent: 1, QueueDepth: 4, SweepEvery: time.Hour,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
	}()
	job, err := sched.Submit(serve.Spec{Task: tspprob.New(cimsa.GenerateInstance("restarts", n, 21), opts)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("service solve never finished")
	}
	st := job.Status()
	if st.State != serve.StateDone {
		t.Fatalf("service solve ended %s (%s)", st.State, st.Error)
	}
	served := job.Result().Detail.(*cimsa.Report)
	if served.Length != direct.Length {
		t.Fatalf("service length %v != direct %v", served.Length, direct.Length)
	}
	if !reflect.DeepEqual(served.Tour, direct.Tour) {
		t.Fatal("service tour diverges from direct solve")
	}
	if !reflect.DeepEqual(served.Solver, direct.Solver) {
		t.Fatalf("restart stats not conserved through the service:\nservice %+v\ndirect  %+v",
			served.Solver, direct.Solver)
	}
}
