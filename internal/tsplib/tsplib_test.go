package tsplib

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cimsa/internal/geom"
)

const sampleTSP = `NAME : toy5
COMMENT : five cities
TYPE : TSP
DIMENSION : 5
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0.0 0.0
2 10.0 0.0
3 10.0 10.0
4 0.0 10.0
5 5.0 5.0
EOF
`

func TestParseSample(t *testing.T) {
	in, err := Parse(strings.NewReader(sampleTSP))
	if err != nil {
		t.Fatal(err)
	}
	if in.Name != "toy5" {
		t.Errorf("name = %q", in.Name)
	}
	if in.N() != 5 {
		t.Fatalf("n = %d", in.N())
	}
	if in.Metric != geom.Euclid2D {
		t.Errorf("metric = %v", in.Metric)
	}
	if d := in.Dist(0, 1); d != 10 {
		t.Errorf("dist(0,1) = %v, want 10", d)
	}
	if in.Comment != "five cities" {
		t.Errorf("comment = %q", in.Comment)
	}
}

func TestParseNoColonSpace(t *testing.T) {
	// Some TSPLIB files use "KEY: value" without space before the colon.
	src := "NAME: x\nTYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: CEIL_2D\nNODE_COORD_SECTION\n1 0 0\n2 1 0\n3 0 1\nEOF\n"
	in, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if in.Name != "x" || in.Metric != geom.Ceil2D || in.N() != 3 {
		t.Fatalf("parsed %+v", in)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad type":       "TYPE : ATSP\nNODE_COORD_SECTION\n1 0 0\nEOF\n",
		"dim mismatch":   "TYPE : TSP\nDIMENSION : 4\nNODE_COORD_SECTION\n1 0 0\n2 1 0\n3 0 1\nEOF\n",
		"no coords":      "TYPE : TSP\nDIMENSION : 3\nEOF\n",
		"dup node":       "TYPE : TSP\nNODE_COORD_SECTION\n1 0 0\n1 1 1\n2 2 2\n3 3 3\nEOF\n",
		"bad coord":      "TYPE : TSP\nNODE_COORD_SECTION\n1 zero 0\n2 1 0\n3 0 1\nEOF\n",
		"short coord":    "TYPE : TSP\nNODE_COORD_SECTION\n1 0\nEOF\n",
		"matrix section": "TYPE : TSP\nEDGE_WEIGHT_SECTION\n0 1\n1 0\nEOF\n",
		"bad metric":     "TYPE : TSP\nEDGE_WEIGHT_TYPE : EXPLICIT\nNODE_COORD_SECTION\n1 0 0\nEOF\n",
		"too few cities": "NAME : t\nTYPE : TSP\nNODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n",
		"bad dimension":  "TYPE : TSP\nDIMENSION : many\nNODE_COORD_SECTION\n1 0 0\nEOF\n",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: Parse accepted malformed input", name)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	orig := Generate("roundtrip", 50, StyleClustered, 9)
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || back.N() != orig.N() || back.Metric != orig.Metric {
		t.Fatalf("header mismatch: %+v vs %+v", back, orig)
	}
	for i := range orig.Cities {
		if orig.Cities[i] != back.Cities[i] {
			t.Fatalf("city %d: %v != %v", i, orig.Cities[i], back.Cities[i])
		}
	}
}

// TestValidateRejectsNonFiniteCoordinates: NaN or ±Inf coordinates,
// and an extent whose N-edge tour would overflow, are refused; a large
// but safe extent is not.
func TestValidateRejectsNonFiniteCoordinates(t *testing.T) {
	for _, c := range []struct {
		x, y float64
		ok   bool
	}{
		{math.NaN(), 0, false},
		{0, math.Inf(1), false},
		{math.Inf(-1), 0, false},
		{1e308, 0, false},
		{-1e308, 0, false},
		{1e200, 0, true},
	} {
		in := Generate("finite", 40, StyleUniform, 1)
		in.Cities[7].X, in.Cities[7].Y = c.x, c.y
		if err := in.Validate(); (err == nil) != c.ok {
			t.Errorf("city at (%v, %v): Validate = %v, want ok=%v", c.x, c.y, err, c.ok)
		}
	}
	// ATT squares the coordinate difference, so it overflows long before
	// the Euclidean diagonal does.
	in := Generate("att", 40, StyleUniform, 1)
	in.Metric = geom.Att
	in.Cities[7].X = 1e200
	if err := in.Validate(); err == nil {
		t.Error("ATT instance with an infinite edge accepted")
	}
	in.Metric = geom.Exact + 1
	if err := in.Validate(); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, style := range []Style{StyleUniform, StylePCB, StyleClustered, StyleGeographic, StylePLA} {
		a := Generate("det", 200, style, 5)
		b := Generate("det", 200, style, 5)
		for i := range a.Cities {
			if a.Cities[i] != b.Cities[i] {
				t.Fatalf("style %v not deterministic at city %d", style, i)
			}
		}
		c := Generate("det", 200, style, 6)
		same := 0
		for i := range a.Cities {
			if a.Cities[i] == c.Cities[i] {
				same++
			}
		}
		if style != StylePLA && same > 10 {
			t.Fatalf("style %v: different seeds share %d/200 cities", style, same)
		}
	}
}

func TestGenerateCounts(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%500) + 3
		for _, style := range []Style{StyleUniform, StylePCB, StyleClustered, StyleGeographic, StylePLA} {
			if got := Generate("c", n, style, 2).N(); got != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateValid(t *testing.T) {
	for _, style := range []Style{StyleUniform, StylePCB, StyleClustered, StyleGeographic, StylePLA} {
		in := Generate("v", 300, style, 3)
		if err := in.Validate(); err != nil {
			t.Errorf("style %v: %v", style, err)
		}
	}
}

func TestPCBPointsDistinct(t *testing.T) {
	in := Generate("pcbx", 1000, StylePCB, 4)
	seen := make(map[geom.Point]bool)
	for _, p := range in.Cities {
		if seen[p] {
			t.Fatalf("duplicate drill hole at %v", p)
		}
		seen[p] = true
	}
}

func TestClusteredIsClustered(t *testing.T) {
	// Mean nearest-neighbour distance of clustered points should be well
	// below that of uniform points on the same board.
	cl := Generate("rlx", 500, StyleClustered, 7)
	un := Generate("unx", 500, StyleUniform, 7)
	if nnMean(cl) >= 0.8*nnMean(un) {
		t.Fatalf("clustered nn %v not < 0.8 * uniform nn %v", nnMean(cl), nnMean(un))
	}
}

func nnMean(in *Instance) float64 {
	var sum float64
	for i := range in.Cities {
		best := math.Inf(1)
		for j := range in.Cities {
			if i == j {
				continue
			}
			if d := geom.Exact.Dist(in.Cities[i], in.Cities[j]); d < best {
				best = d
			}
		}
		sum += best
	}
	return sum / float64(in.N())
}

func TestStyleForName(t *testing.T) {
	cases := map[string]Style{
		"pcb3038":  StylePCB,
		"rl5915":   StyleClustered,
		"pla85900": StylePLA,
		"usa13509": StyleGeographic,
		"d15112":   StyleGeographic,
		"brd14051": StyleGeographic,
		"random1":  StyleUniform,
	}
	for name, want := range cases {
		if got := StyleForName(name); got != want {
			t.Errorf("StyleForName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	k, err := Lookup("pcb3038")
	if err != nil {
		t.Fatal(err)
	}
	if k.N != 3038 || k.BestKnown != 137694 {
		t.Fatalf("pcb3038 entry wrong: %+v", k)
	}
	if _, err := Lookup("nonexistent"); err == nil {
		t.Fatal("Lookup accepted unknown name")
	}
}

func TestRegistrySizesMatchNames(t *testing.T) {
	// The digits embedded in TSPLIB names encode the city count.
	for _, k := range Registry {
		digits := 0
		for _, c := range k.Name {
			if c >= '0' && c <= '9' {
				digits = digits*10 + int(c-'0')
			}
		}
		if digits != k.N {
			t.Errorf("%s: name encodes %d but N=%d", k.Name, digits, k.N)
		}
	}
}

func TestLoadMatchesRegistry(t *testing.T) {
	in, err := Load("pcb442")
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 442 {
		t.Fatalf("loaded %d cities", in.N())
	}
	// Load must be deterministic across calls.
	again, err := Load("pcb442")
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Cities {
		if in.Cities[i] != again.Cities[i] {
			t.Fatal("Load not deterministic")
		}
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) != len(Registry) {
		t.Fatalf("Names returned %d, registry has %d", len(names), len(Registry))
	}
	prev := 0
	for _, name := range names {
		k, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if k.N < prev {
			t.Fatalf("Names not sorted by size at %s", name)
		}
		prev = k.N
	}
}

func TestDistanceMatrix(t *testing.T) {
	in, err := Parse(strings.NewReader(sampleTSP))
	if err != nil {
		t.Fatal(err)
	}
	m := in.DistanceMatrix()
	for i := 0; i < in.N(); i++ {
		if m[i][i] != 0 {
			t.Errorf("diagonal (%d,%d) = %v", i, i, m[i][i])
		}
		for j := 0; j < in.N(); j++ {
			if m[i][j] != m[j][i] {
				t.Errorf("matrix asymmetric at (%d,%d)", i, j)
			}
			if m[i][j] != in.Dist(i, j) {
				t.Errorf("matrix (%d,%d) = %v, Dist = %v", i, j, m[i][j], in.Dist(i, j))
			}
		}
	}
}

func TestDistanceMatrixPanicsWhenHuge(t *testing.T) {
	in := &Instance{Name: "huge", Metric: geom.Euclid2D, Cities: make([]geom.Point, maxMatrixN+1)}
	defer func() {
		if recover() == nil {
			t.Fatal("DistanceMatrix on huge instance did not panic")
		}
	}()
	in.DistanceMatrix()
}

func TestSubInstance(t *testing.T) {
	in := Generate("parent", 20, StyleUniform, 8)
	sub := in.SubInstance("child", []int{3, 7, 11, 15})
	if sub.N() != 4 {
		t.Fatalf("sub has %d cities", sub.N())
	}
	if sub.Cities[0] != in.Cities[3] || sub.Cities[3] != in.Cities[15] {
		t.Fatal("sub-instance city order wrong")
	}
	// Mutating the sub must not touch the parent.
	sub.Cities[0].X += 100
	if in.Cities[3].X == sub.Cities[0].X {
		t.Fatal("sub-instance shares storage with parent")
	}
}

func TestGeneratePanicsOnTinyN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate(n=2) did not panic")
		}
	}()
	Generate("tiny", 2, StyleUniform, 1)
}
