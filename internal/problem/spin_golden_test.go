package problem_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cimsa/internal/problem"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current output")

// spinGoldenCases are the serve-mixed benchmark's maxcut, ising and
// qubo shapes, eight instance/solve seed pairs each, plus ising and
// qubo under the SCA backend.
func spinGoldenCases() []string {
	var reqs []string
	shapes := []struct{ problem, format string }{
		{"maxcut", `{"generate":{"n":512,"density":0.02,"seed":%d},"sweeps":400,"seed":%d}`},
		{"ising", `{"generate":{"n":256,"density":0.1,"seed":%d},"sweeps":200,"seed":%d}`},
		{"qubo", `{"generate":{"n":128,"density":0.2,"seed":%d},"sweeps":200,"seed":%d}`},
		{"ising", `{"generate":{"n":256,"density":0.1,"seed":%d},"algorithm":"sca","seed":%d}`},
		{"qubo", `{"generate":{"n":128,"density":0.2,"seed":%d},"algorithm":"sca","seed":%d}`},
	}
	for _, s := range shapes {
		for k := uint64(0); k < 8; k++ {
			reqs = append(reqs, fmt.Sprintf(`{%q:`+s.format+`}`, s.problem, 7001+k, 9001+3*k))
		}
	}
	return reqs
}

// TestSpinResultsGolden pins the marshalled problem.Result of every
// spin backend byte for byte: spins, energies, acceptance counts and
// the objective. The spin engines' output is what SolverVersion vouches
// for in the result cache, so any change to it must show here first.
// Regenerate with -update only for a deliberate, version-bumped change.
func TestSpinResultsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, req := range spinGoldenCases() {
		var body map[string]json.RawMessage
		if err := json.Unmarshal([]byte(req), &body); err != nil {
			t.Fatal(err)
		}
		for name, payload := range body {
			typ, ok := problem.Lookup(name)
			if !ok {
				t.Fatalf("problem %q not registered", name)
			}
			task, err := typ.NewTask(payload, problem.Limits{})
			if err != nil {
				t.Fatalf("%s: %v", req, err)
			}
			res, err := task.Solve(context.Background(), problem.Run{})
			if err != nil {
				t.Fatalf("%s: %v", req, err)
			}
			out, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s: marshal: %v", req, err)
			}
			fmt.Fprintf(&got, "%s\n%s\n", req, out)
		}
	}
	path := filepath.Join("testdata", "spin_results.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("spin results drifted from %s at line %d:\n got %.200s\nwant %.200s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("spin results drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
