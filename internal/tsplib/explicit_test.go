package tsplib

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"cimsa/internal/geom"
)

const explicitFull = `NAME : exp4
TYPE : TSP
DIMENSION : 4
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : FULL_MATRIX
EDGE_WEIGHT_SECTION
0 10 20 30
10 0 15 25
20 15 0 12
30 25 12 0
EOF
`

func TestParseExplicitFullMatrix(t *testing.T) {
	in, err := Parse(strings.NewReader(explicitFull))
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != 4 {
		t.Fatalf("n = %d", in.N())
	}
	if in.Dist(0, 1) != 10 || in.Dist(3, 2) != 12 || in.Dist(2, 2) != 0 {
		t.Fatalf("explicit distances wrong: %v %v", in.Dist(0, 1), in.Dist(3, 2))
	}
	// Coordinates were synthesized (MDS) so geometric code paths work.
	if len(in.Cities) != 4 {
		t.Fatal("no embedded coordinates")
	}
}

func TestParseExplicitUpperRow(t *testing.T) {
	src := "NAME : t\nTYPE : TSP\nDIMENSION : 4\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : UPPER_ROW\nEDGE_WEIGHT_SECTION\n10 20 30\n15 25\n12\nEOF\n"
	in, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if in.Dist(0, 3) != 30 || in.Dist(3, 0) != 30 || in.Dist(1, 2) != 15 {
		t.Fatal("upper-row distances wrong")
	}
}

func TestParseExplicitLowerDiagRow(t *testing.T) {
	src := "NAME : t\nTYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : LOWER_DIAG_ROW\nEDGE_WEIGHT_SECTION\n0\n7 0\n9 5 0\nEOF\n"
	in, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if in.Dist(0, 1) != 7 || in.Dist(0, 2) != 9 || in.Dist(1, 2) != 5 {
		t.Fatal("lower-diag distances wrong")
	}
}

func TestParseExplicitUpperDiagAndLowerRow(t *testing.T) {
	up := "NAME : t\nTYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : UPPER_DIAG_ROW\nEDGE_WEIGHT_SECTION\n0 7 9\n0 5\n0\nEOF\n"
	in, err := Parse(strings.NewReader(up))
	if err != nil {
		t.Fatal(err)
	}
	if in.Dist(0, 1) != 7 || in.Dist(1, 2) != 5 {
		t.Fatal("upper-diag distances wrong")
	}
	low := "NAME : t\nTYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : LOWER_ROW\nEDGE_WEIGHT_SECTION\n7\n9 5\nEOF\n"
	in2, err := Parse(strings.NewReader(low))
	if err != nil {
		t.Fatal(err)
	}
	if in2.Dist(0, 1) != 7 || in2.Dist(0, 2) != 9 || in2.Dist(1, 2) != 5 {
		t.Fatal("lower-row distances wrong")
	}
}

func TestParseExplicitWithDisplayData(t *testing.T) {
	src := strings.TrimSuffix(explicitFull, "EOF\n") +
		"DISPLAY_DATA_SECTION\n1 0 0\n2 10 0\n3 10 10\n4 0 10\nEOF\n"
	in, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if in.Cities[2] != (geom.Point{X: 10, Y: 10}) {
		t.Fatalf("display coordinates not used: %v", in.Cities[2])
	}
	// Distances still come from the matrix, not the display geometry.
	if in.Dist(0, 1) != 10 {
		t.Fatal("matrix distance overridden")
	}
}

func TestParseExplicitErrors(t *testing.T) {
	cases := map[string]string{
		"no dimension": "TYPE : TSP\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0\nEOF\n",
		"no format":    "TYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_SECTION\n0 1\n1 0\nEOF\n",
		"bad format":   "TYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : UPPER_COL\nEDGE_WEIGHT_SECTION\n1\nEOF\n",
		"short data":   "TYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 2\nEOF\n",
		"asymmetric":   "TYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1\n2 0\nEOF\n",
		"negative":     "TYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 -1\n-1 0\nEOF\n",
		"bad weight":   "TYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 x\nx 0\nEOF\n",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestExplicitWriteParseRoundTrip(t *testing.T) {
	in, err := Parse(strings.NewReader(explicitFull))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if back.Dist(i, j) != in.Dist(i, j) {
				t.Fatalf("distance (%d,%d) changed in round trip", i, j)
			}
		}
	}
}

func TestMDSRecoversEuclideanLayout(t *testing.T) {
	// Build a matrix from known points; the embedding must reproduce all
	// pairwise distances (up to rotation/reflection, which distances are
	// invariant to).
	orig := Generate("mds-src", 40, StyleUniform, 5)
	n := orig.N()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = geom.Exact.Dist(orig.Cities[i], orig.Cities[j])
		}
	}
	pts := mdsEmbed(d)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			got := geom.Exact.Dist(pts[i], pts[j])
			if math.Abs(got-d[i][j]) > 1e-6*(d[i][j]+1) {
				t.Fatalf("distance (%d,%d): embedded %v, true %v", i, j, got, d[i][j])
			}
		}
	}
}

func TestExplicitInstanceEmbeddingUseful(t *testing.T) {
	// End-to-end: an EXPLICIT instance built from Euclidean data gets an
	// MDS embedding whose geometry correlates with the matrix, so the
	// Hilbert clustering has something real to work with.
	orig := Generate("mds-solve", 80, StyleClustered, 6)
	n := orig.N()
	var sb strings.Builder
	sb.WriteString("NAME : exp80\nTYPE : TSP\nDIMENSION : 80\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			sb.WriteString(strconv.FormatFloat(orig.Dist(i, j), 'g', -1, 64))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("EOF\n")
	in, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// The closest embedded point to city 0 must be among its 5 closest
	// by matrix distance.
	bestEmb, bestD := -1, math.Inf(1)
	for j := 1; j < n; j++ {
		if dd := geom.Exact.Dist(in.Cities[0], in.Cities[j]); dd < bestD {
			bestD, bestEmb = dd, j
		}
	}
	rank := 0
	for j := 1; j < n; j++ {
		if j != bestEmb && in.Dist(0, j) < in.Dist(0, bestEmb) {
			rank++
		}
	}
	if rank > 4 {
		t.Fatalf("embedding quality poor: closest embedded point ranks %d by matrix", rank)
	}
}

func TestExplicitValidateCatchesCorruption(t *testing.T) {
	for name, corrupt := range map[string]func(m [][]float64){
		"asymmetric":     func(m [][]float64) { m[1][2] = 999 },
		"infinite entry": func(m [][]float64) { m[1][2], m[2][1] = math.Inf(1), math.Inf(1) },
	} {
		in, err := Parse(strings.NewReader(explicitFull))
		if err != nil {
			t.Fatal(err)
		}
		corrupt(in.Explicit) // after the fact, past the parser's checks
		if err := in.Validate(); err == nil {
			t.Fatalf("%s matrix passed validation", name)
		}
	}
}

func TestSubInstanceSlicesExplicitMatrix(t *testing.T) {
	in, err := Parse(strings.NewReader(explicitFull))
	if err != nil {
		t.Fatal(err)
	}
	sub := in.SubInstance("sub", []int{3, 1, 0})
	if sub.Explicit == nil {
		t.Fatal("explicit matrix not propagated")
	}
	if sub.Dist(0, 1) != in.Dist(3, 1) || sub.Dist(1, 2) != in.Dist(1, 0) {
		t.Fatal("sliced matrix distances wrong")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mutating the sub matrix must not touch the parent.
	sub.Explicit[0][1] = 12345
	if in.Explicit[3][1] == 12345 {
		t.Fatal("sub shares matrix storage with parent")
	}
}
