package cimsa_test

import (
	"bytes"
	"strings"
	"testing"

	"cimsa"
	"cimsa/internal/tsplib"
	"cimsa/internal/viz"
)

// TestUserJourney walks the full adoption path a downstream user takes:
// generate a workload, serialize it to TSPLIB format, load it back,
// solve with two modes, verify the tour's length, and render it —
// every public surface in one flow.
func TestUserJourney(t *testing.T) {
	// 1. Generate and serialize a workload.
	orig := cimsa.GenerateInstance("journey", 300, 77)
	var tspFile bytes.Buffer
	if err := tsplib.Write(&tspFile, orig); err != nil {
		t.Fatal(err)
	}

	// 2. Load it back as a user would from disk.
	in, err := cimsa.LoadInstance(&tspFile)
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != orig.N() {
		t.Fatalf("round trip changed size: %d", in.N())
	}

	// 3. Solve with the paper's design and the greedy ablation.
	rep, err := cimsa.Solve(in, cimsa.Options{PMax: 3, Seed: 5, Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := cimsa.Solve(in, cimsa.Options{PMax: 3, Seed: 5, Mode: "greedy", SkipHardware: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Length <= 0 || greedy.Length <= 0 {
		t.Fatal("degenerate solves")
	}

	// 4. The reported tour is valid and measures the reported length.
	if err := rep.Tour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	if got := rep.Tour.Length(in); got != rep.Length {
		t.Fatalf("tour measures %v, solve reported %v", got, rep.Length)
	}

	// 5. Render to SVG.
	var svg bytes.Buffer
	if err := viz.WriteSVG(&svg, in, rep.Tour, viz.Options{Title: "journey"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "</svg>") {
		t.Fatal("SVG incomplete")
	}

	// 6. The hardware report is self-consistent.
	c := rep.Chip
	if c.Windows <= 0 || c.Arrays != (c.Windows+9)/10 {
		t.Fatalf("window/array accounting inconsistent: %d/%d", c.Windows, c.Arrays)
	}
	if c.LatencySeconds <= 0 || c.EnergyJ <= 0 || c.AreaMM2 <= 0 {
		t.Fatal("hardware report incomplete")
	}
}

// TestModeSelectionThroughFacade exercises every named mode string.
func TestModeSelectionThroughFacade(t *testing.T) {
	in := cimsa.GenerateInstance("modes", 120, 11)
	for _, mode := range []string{"noisy-cim", "metropolis", "greedy", "noisy-spins"} {
		rep, err := cimsa.Solve(in, cimsa.Options{Seed: 2, Mode: mode, SkipHardware: true})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if err := rep.Tour.Validate(in.N()); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	}
	if _, err := cimsa.Solve(in, cimsa.Options{Mode: "quantum"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestRestartsThroughFacade checks best-of-K plumbing end to end.
func TestRestartsThroughFacade(t *testing.T) {
	in := cimsa.GenerateInstance("restarts", 200, 13)
	one, err := cimsa.Solve(in, cimsa.Options{Seed: 4, SkipHardware: true})
	if err != nil {
		t.Fatal(err)
	}
	best, err := cimsa.Solve(in, cimsa.Options{Seed: 4, Restarts: 3, SkipHardware: true})
	if err != nil {
		t.Fatal(err)
	}
	if best.Length > one.Length {
		t.Fatalf("best-of-3 (%v) worse than single (%v)", best.Length, one.Length)
	}
}
