package isingprob

import (
	"encoding/json"
	"math"
	"testing"

	"cimsa/internal/problem"
)

// TestQUBOBuildReproducible builds one qubo request many times and
// requires every build to be bit-identical: the same instance and
// design hashes (so a repeated submit can hit the result cache), the
// same J and H bits, and the same objective on fixed bits. The payloads
// carry fractional off-diagonal entries that touch each spin many times
// (and, for the explicit matrix, duplicates and transposed pairs), so
// any order-dependent float summation would show as ulp drift.
func TestQUBOBuildReproducible(t *testing.T) {
	explicit := `{"n":6,"q":[` +
		`{"i":0,"j":1,"v":0.1},{"i":1,"j":0,"v":0.7},{"i":0,"j":2,"v":-0.3},{"i":2,"j":3,"v":1e-3},` +
		`{"i":3,"j":4,"v":3.3},{"i":4,"j":5,"v":-2.2},{"i":0,"j":5,"v":0.45},{"i":5,"j":1,"v":0.11},` +
		`{"i":2,"j":4,"v":-0.6},{"i":3,"j":2,"v":0.25},{"i":1,"j":1,"v":0.5},{"i":0,"j":1,"v":-0.05}],"seed":3}`
	for name, payload := range map[string]string{
		"generate": `{"generate":{"n":24,"density":0.8,"seed":5},"sweeps":50,"seed":2}`,
		"explicit": explicit,
	} {
		t.Run(name, func(t *testing.T) {
			build := func() *Task {
				t.Helper()
				task, err := QUBOType{}.NewTask(json.RawMessage(payload), problem.Limits{})
				if err != nil {
					t.Fatal(err)
				}
				return task.(*Task)
			}
			ref := build()
			bits := make([]int8, ref.m.N)
			for i := range bits {
				bits[i] = int8(i % 2)
			}
			refObj := math.Float64bits(ref.quboValue(bits))
			for k := 0; k < 50; k++ {
				got := build()
				if got.InstanceHash() != ref.InstanceHash() || got.DesignHash() != ref.DesignHash() {
					t.Fatalf("build %d: hashes (%s, %s), first build (%s, %s)",
						k, got.InstanceHash(), got.DesignHash(), ref.InstanceHash(), ref.DesignHash())
				}
				for i := 0; i < ref.m.N; i++ {
					if math.Float64bits(got.m.H[i]) != math.Float64bits(ref.m.H[i]) {
						t.Fatalf("build %d: H[%d] = %v, first build %v", k, i, got.m.H[i], ref.m.H[i])
					}
					for j := 0; j < ref.m.N; j++ {
						if math.Float64bits(got.m.J[i][j]) != math.Float64bits(ref.m.J[i][j]) {
							t.Fatalf("build %d: J[%d][%d] = %v, first build %v", k, i, j, got.m.J[i][j], ref.m.J[i][j])
						}
					}
				}
				if obj := math.Float64bits(got.quboValue(bits)); obj != refObj {
					t.Fatalf("build %d: objective %v, first build %v", k, math.Float64frombits(obj), math.Float64frombits(refObj))
				}
			}
		})
	}
}

// TestQUBOFoldsDuplicatesAndTransposes checks the folded upper-triangular
// view: (i,j) and (j,i) address one coefficient, duplicates sum, and the
// objective is xᵀQx over the original entries.
func TestQUBOFoldsDuplicatesAndTransposes(t *testing.T) {
	task, err := QUBOType{}.NewTask(json.RawMessage(
		`{"n":3,"q":[{"i":2,"j":0,"v":1},{"i":0,"j":2,"v":2},{"i":1,"j":1,"v":-4},{"i":0,"j":1,"v":0.5}]}`), problem.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	q := task.(*Task)
	want := []quboEntry{{0, 1, 0.5}, {0, 2, 3}}
	if len(q.quboOff) != len(want) {
		t.Fatalf("off-diagonal entries %v, want %v", q.quboOff, want)
	}
	for k, e := range want {
		if q.quboOff[k] != e {
			t.Fatalf("off-diagonal entries %v, want %v", q.quboOff, want)
		}
	}
	// x = (1,1,1): 1 + 2 - 4 + 0.5.
	if got := q.quboValue([]int8{1, 1, 1}); got != -0.5 {
		t.Fatalf("objective on all-ones = %v, want -0.5", got)
	}
}
