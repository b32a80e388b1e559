package cimsa_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cimsa"
)

// Every invalid design point is rejected at the facade through the one
// Validate error path, with an error naming the offending field,
// instead of failing deep inside the solver.
func TestOptionsValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		opt  cimsa.Options
		want string
	}{
		{"pmax below range", cimsa.Options{PMax: 1}, "PMax"},
		{"pmax above range", cimsa.Options{PMax: 9}, "PMax"},
		{"pmax negative", cimsa.Options{PMax: -3}, "PMax"},
		{"negative workers", cimsa.Options{Workers: -2}, "Workers"},
		{"old auto sentinel", cimsa.Options{Workers: -1}, "Workers"},
		{"negative restarts", cimsa.Options{Restarts: -2}, "Restarts"},
		{"unknown mode", cimsa.Options{Mode: "quantum"}, "Mode"},
	}
	in := cimsa.GenerateInstance("validate", 50, 1)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.opt.Validate()
			if err == nil {
				t.Fatal("invalid options accepted by Validate")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
			// Solve must reject through the same path before any work.
			if _, serr := cimsa.Solve(in, c.opt); serr == nil {
				t.Fatal("Solve accepted invalid options")
			} else if serr.Error() != err.Error() {
				t.Fatalf("Solve error %q != Validate error %q", serr, err)
			}
		})
	}
}

func TestOptionsValidateAccepts(t *testing.T) {
	for _, opt := range []cimsa.Options{
		{},
		{PMax: 2},
		{PMax: 8, Workers: 4, Restarts: 3, Mode: "metropolis"},
		{Mode: "noisy-spins", Workers: 1},
		{Workers: cimsa.WorkersAuto},
	} {
		if err := opt.Validate(); err != nil {
			t.Errorf("valid options %+v rejected: %v", opt, err)
		}
	}
}

// SolveContext with a background context is bit-identical to Solve, and
// attaching a Progress hook does not perturb the result either.
func TestSolveContextMatchesSolve(t *testing.T) {
	in := cimsa.GenerateInstance("ctx-det", 300, 11)
	opt := cimsa.Options{PMax: 3, Seed: 5, SkipHardware: true}
	direct, err := cimsa.Solve(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	opt.Progress = func(cimsa.ProgressEvent) { events++ }
	viaCtx, err := cimsa.SolveContext(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if viaCtx.Length != direct.Length {
		t.Fatalf("SolveContext length %v != Solve length %v", viaCtx.Length, direct.Length)
	}
	for i := range direct.Tour {
		if viaCtx.Tour[i] != direct.Tour[i] {
			t.Fatalf("tours diverge at position %d", i)
		}
	}
	if events == 0 {
		t.Fatal("progress hook never fired")
	}
}

// A cancelled context aborts the solve with context.Canceled.
func TestSolveContextCanceled(t *testing.T) {
	in := cimsa.GenerateInstance("ctx-cancel", 300, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := cimsa.SolveContext(ctx, in, cimsa.Options{SkipHardware: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
