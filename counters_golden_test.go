package cimsa_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cimsa"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current output")

// TestReportCountersGolden pins every work counter of Report.Solver and
// the whole Report.Chip for the s12000 golden solve with the hardware
// report on, inline and on a pool. The tour goldens pin only tours and
// lengths, so a drift in a counter that feeds the energy model
// (WriteBacks, WeightWrites, Cycles, BoundaryTransferBits) would
// otherwise pass unnoticed.
func TestReportCountersGolden(t *testing.T) {
	var tc goldenCase
	for _, c := range goldenCases() {
		if c.name == "s12000" {
			tc = c
		}
	}
	in := cimsa.GenerateInstance(tc.name, tc.n, tc.genSeed)
	var got bytes.Buffer
	for _, workers := range []int{1, 2} {
		opts := tc.opts
		opts.SkipHardware = false
		opts.Workers = workers
		rep, err := cimsa.Solve(in, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out, err := json.Marshal(struct {
			Solver any
			Chip   any
		}{rep.Solver, rep.Chip})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s workers=%d\n%s\n", tc.name, workers, out)
	}
	checkGoldenFile(t, filepath.Join("testdata", "report_counters.golden"), got.Bytes())
}

// checkGoldenFile compares got with the golden file at path, rewriting
// it first under -update, and names the first line that differs.
func checkGoldenFile(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("output drifted from %s at line %d:\n got %.400s\nwant %.400s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output drifted from %s: %d lines, want %d", path, len(gl), len(wl))
}
