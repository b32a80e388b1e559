package tour

import (
	"testing"

	"cimsa/internal/geom"
	"cimsa/internal/rng"
	"cimsa/internal/tsplib"
)

func squareInstance() *tsplib.Instance {
	return &tsplib.Instance{
		Name:   "square",
		Metric: geom.Euclid2D,
		Cities: []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}},
	}
}

func TestNewIsIdentity(t *testing.T) {
	tr := New(5)
	for i, c := range tr {
		if c != i {
			t.Fatalf("New(5)[%d] = %d", i, c)
		}
	}
}

func TestLengthSquare(t *testing.T) {
	in := squareInstance()
	if got := New(4).Length(in); got != 40 {
		t.Fatalf("perimeter = %v, want 40", got)
	}
	crossed := Tour{0, 2, 1, 3}
	want := in.Dist(0, 2) + in.Dist(2, 1) + in.Dist(1, 3) + in.Dist(3, 0)
	if got := crossed.Length(in); got != want {
		t.Fatalf("crossed = %v, want %v", got, want)
	}
	if crossed.Length(in) <= 40 {
		t.Fatal("crossing tour should be longer than perimeter")
	}
}

func TestLengthDegenerate(t *testing.T) {
	in := squareInstance()
	if got := (Tour{0}).Length(in); got != 0 {
		t.Fatalf("single-city length = %v", got)
	}
	if got := (Tour{}).Length(in); got != 0 {
		t.Fatalf("empty length = %v", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (Tour{0, 1, 2}).Validate(3); err != nil {
		t.Fatalf("valid tour rejected: %v", err)
	}
	cases := []struct {
		name string
		tr   Tour
		n    int
	}{
		{"short", Tour{0, 1}, 3},
		{"repeat", Tour{0, 1, 1}, 3},
		{"range", Tour{0, 1, 3}, 3},
		{"negative", Tour{0, -1, 2}, 3},
	}
	for _, c := range cases {
		if err := c.tr.Validate(c.n); err == nil {
			t.Errorf("%s: invalid tour accepted", c.name)
		}
	}
}

func TestReverse(t *testing.T) {
	tr := Tour{0, 1, 2, 3, 4}
	tr.Reverse(1, 3)
	want := Tour{0, 3, 2, 1, 4}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("reverse = %v, want %v", tr, want)
		}
	}
}

func TestReverseInvariantLength(t *testing.T) {
	// Reversing a full closed tour never changes its length.
	in := tsplib.Generate("rev", 30, tsplib.StyleUniform, 3)
	r := rng.New(7)
	tr := Tour(r.Perm(30))
	before := tr.Length(in)
	tr.Reverse(0, len(tr)-1)
	if after := tr.Length(in); after != before {
		t.Fatalf("full reverse changed length %v -> %v", before, after)
	}
}

func TestPositions(t *testing.T) {
	tr := Tour{3, 0, 2, 1}
	pos := tr.Positions()
	for i, c := range tr {
		if pos[c] != i {
			t.Fatalf("pos[%d] = %d, want %d", c, pos[c], i)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	tr := New(4)
	c := tr.Clone()
	c[0] = 99
	if tr[0] == 99 {
		t.Fatal("clone shares storage")
	}
}
