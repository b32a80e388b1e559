package cimsa_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cimsa"
)

func TestFacadeSolve(t *testing.T) {
	in := cimsa.GenerateInstance("facade", 200, 1)
	rep, err := cimsa.Solve(in, cimsa.Options{PMax: 3, Seed: 1, Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Tour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	if rep.Instance != "facade" || rep.N != 200 {
		t.Fatalf("report identity wrong: %s/%d", rep.Instance, rep.N)
	}
	if rep.ReferenceLength <= 0 || rep.OptimalRatio < 1 || rep.OptimalRatio > 2 {
		t.Fatalf("reference %v, optimal ratio %v implausible", rep.ReferenceLength, rep.OptimalRatio)
	}
	if rep.Chip.AreaMM2 <= 0 || rep.Chip.PowerMW <= 0 || rep.Chip.LatencySeconds <= 0 {
		t.Fatal("hardware report missing")
	}
}

func TestFacadeSolveName(t *testing.T) {
	rep, err := cimsa.SolveName("pcb442", cimsa.Options{Seed: 2, SkipHardware: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 442 {
		t.Fatalf("solved %d cities", rep.N)
	}
	if rep.Chip.AreaMM2 != 0 {
		t.Fatal("hardware report present despite SkipHardware")
	}
	if _, err := cimsa.SolveName("bogus", cimsa.Options{}); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestFacadeLoadInstance(t *testing.T) {
	src := "NAME : t\nTYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 3 0\n3 0 4\nEOF\n"
	in, err := cimsa.LoadInstance(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 3 || in.Dist(1, 2) != 5 {
		t.Fatalf("parsed instance wrong: n=%d", in.N())
	}
}

func TestFacadeNames(t *testing.T) {
	names := cimsa.InstanceNames()
	if len(names) == 0 {
		t.Fatal("no registry names")
	}
	found := false
	for _, n := range names {
		if n == "pla85900" {
			found = true
		}
	}
	if !found {
		t.Fatal("pla85900 missing from registry")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	in := cimsa.GenerateInstance("facade-det", 150, 3)
	a, err := cimsa.Solve(in, cimsa.Options{Seed: 4, SkipHardware: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cimsa.Solve(in, cimsa.Options{Seed: 4, SkipHardware: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Length != b.Length {
		t.Fatalf("same seed, different lengths: %v vs %v", a.Length, b.Length)
	}
}

func TestFacadeRejectsBadOptions(t *testing.T) {
	in := cimsa.GenerateInstance("facade-bad", 50, 5)
	if _, err := cimsa.Solve(in, cimsa.Options{PMax: 1}); err == nil {
		t.Fatal("PMax=1 accepted")
	}
}

// TestSolveRejectsInvalidInstance: an empty instance, and one whose
// coordinates are not finite or span so far that a tour length
// overflows, fail the solve with an error instead of panicking inside
// the clustering or the exact top-level solver. A large but safe
// extent still solves to a valid tour.
func TestSolveRejectsInvalidInstance(t *testing.T) {
	if _, err := cimsa.Solve(&cimsa.Instance{Name: "bad"}, cimsa.Options{}); err == nil {
		t.Fatal("empty instance accepted")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308} {
		in := cimsa.GenerateInstance("far", 40, 1)
		in.Cities[7].X = x
		if _, err := cimsa.Solve(in, cimsa.Options{Seed: 1}); err == nil {
			t.Fatalf("city at x=%v accepted", x)
		}
	}
	in := cimsa.GenerateInstance("far", 40, 1)
	in.Cities[7].X = 1e200
	rep, err := cimsa.Solve(in, cimsa.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Tour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExplicitMatrixEndToEnd(t *testing.T) {
	// An EXPLICIT-matrix TSPLIB file (no coordinates) solves through the
	// full pipeline: the parser recovers an MDS embedding for the
	// clustering while distances always come from the matrix.
	base := cimsa.GenerateInstance("exp-src", 120, 9)
	var sb strings.Builder
	fmt.Fprintf(&sb, "NAME : exp120\nTYPE : TSP\nDIMENSION : %d\n", base.N())
	sb.WriteString("EDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n")
	for i := 0; i < base.N(); i++ {
		for j := 0; j < base.N(); j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%g", base.Dist(i, j))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("EOF\n")
	in, err := cimsa.LoadInstance(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cimsa.Solve(in, cimsa.Options{Seed: 3, SkipHardware: true, Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Tour.Validate(in.N()); err != nil {
		t.Fatal(err)
	}
	if rep.OptimalRatio > 1.6 {
		t.Fatalf("explicit-instance quality poor: %v", rep.OptimalRatio)
	}
}

// TestTinyInstancesSolve drives every size around the clustering
// threshold through the facade: up to 10 cities the hierarchy is one
// level, solved exactly with nothing annealed, and 11 is the smallest
// instance with an annealed level. Random, all-identical and collinear
// points each run over the design-point and worker grid, with and
// without the reference solver and the hardware report; every case
// must return a valid tour of all n cities.
func TestTinyInstancesSolve(t *testing.T) {
	for n := 3; n <= 11; n++ {
		identical := make([][2]float64, n)
		collinear := make([][2]float64, n)
		for i := range identical {
			identical[i] = [2]float64{5, 5}
			collinear[i] = [2]float64{float64(i * 3), float64(i * 6)}
		}
		instances := []*cimsa.Instance{
			cimsa.GenerateInstance(fmt.Sprintf("tiny%d", n), n, uint64(n)),
			loadPoints(t, fmt.Sprintf("same%d", n), identical),
			loadPoints(t, fmt.Sprintf("line%d", n), collinear),
		}
		for _, in := range instances {
			for _, pmax := range []int{2, 3, 4, 8} {
				for _, workers := range []int{1, 0, 4} {
					for _, flags := range []struct{ ref, noHW bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
						opt := cimsa.Options{PMax: pmax, Seed: 1, Workers: workers, Reference: flags.ref, SkipHardware: flags.noHW}
						rep, err := cimsa.Solve(in, opt)
						if err != nil {
							t.Errorf("%s %+v: %v", in.Name, opt, err)
							continue
						}
						if err := rep.Tour.Validate(n); err != nil {
							t.Errorf("%s %+v: invalid tour %v: %v", in.Name, opt, rep.Tour, err)
						}
					}
				}
			}
		}
	}
}

// loadPoints builds a EUC_2D instance from coordinates through the
// TSPLIB reader.
func loadPoints(t *testing.T, name string, pts [][2]float64) *cimsa.Instance {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "NAME : %s\nTYPE : TSP\nDIMENSION : %d\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n", name, len(pts))
	for i, p := range pts {
		fmt.Fprintf(&sb, "%d %g %g\n", i+1, p[0], p[1])
	}
	sb.WriteString("EOF\n")
	in, err := cimsa.LoadInstance(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return in
}
