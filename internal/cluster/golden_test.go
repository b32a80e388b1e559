package cluster

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"cimsa/internal/geom"
	"cimsa/internal/tsplib"
)

// hierarchyFingerprint hashes a hierarchy with FNV-1a: every level's
// size and, depth first, every node's city, leaf count, exact centroid
// bits and child structure.
func hierarchyFingerprint(h *Hierarchy) uint64 {
	f := fnv.New64a()
	var walk func(n *Node)
	walk = func(n *Node) {
		fmt.Fprintf(f, "(%d %d %x %x", n.City, n.Leaves, math.Float64bits(n.Centroid.X), math.Float64bits(n.Centroid.Y))
		for _, c := range n.Children {
			walk(c)
		}
		fmt.Fprint(f, ")")
	}
	for li, level := range h.Levels {
		fmt.Fprintf(f, "L%d:%d", li, len(level))
		for _, n := range level {
			walk(n)
		}
	}
	return f.Sum64()
}

// TestBuildGolden pins Build's exact output for every strategy family on
// generated, degenerate and paper-scale inputs. The values were captured
// from the straightforward implementation (a fresh DP per Lagrangian
// probe, a comparator sort, one allocation per node); every later
// speed-up must reproduce them bit for bit, down to the last centroid
// ulp, because the annealer's tours depend on them.
func TestBuildGolden(t *testing.T) {
	gen := func(n int) *tsplib.Instance {
		name := fmt.Sprintf("g%d", n)
		return tsplib.Generate(name, n, tsplib.StyleForName(name), uint64(n))
	}
	same := make([]geom.Point, 50)
	for i := range same {
		same[i] = geom.Point{X: 5, Y: 5}
	}
	line := make([]geom.Point, 300)
	for i := range line {
		line[i] = geom.Point{X: float64(i % 17), Y: 3}
	}
	pla, err := tsplib.Load("pla85900")
	if err != nil {
		t.Fatal(err)
	}
	semi3 := Strategy{Kind: SemiFlex, P: 3}
	cases := []struct {
		name   string
		cities []geom.Point
		s      Strategy
		levels int
		want   uint64
	}{
		{"g11", gen(11).Cities, semi3, 2, 0xa5e746a3fcf80061},
		{"g999", gen(999).Cities, Strategy{Kind: SemiFlex, P: 2}, 13, 0xca42a1a79a21564a},
		{"g999", gen(999).Cities, semi3, 8, 0xa94de5cbffd477f4},
		{"g999", gen(999).Cities, Strategy{Kind: SemiFlex, P: 8}, 5, 0x74f5e4917d8e1226},
		{"g999", gen(999).Cities, Strategy{Kind: Fixed, P: 3}, 6, 0xa4c51bcdb703615d},
		{"g999", gen(999).Cities, Strategy{Kind: Arbitrary}, 8, 0xaedbcc5608cf021d},
		{"g20000", gen(20000).Cities, Strategy{Kind: SemiFlex, P: 4}, 10, 0x870c3d2e65484c40},
		{"coincident", same, semi3, 3, 0xcbb6cefc781c392e},
		{"coincident", same, Strategy{Kind: Arbitrary}, 2, 0x8908c351d5b8795b},
		{"collinear", line, semi3, 5, 0xf51cb3b578688dd3},
		{"collinear", line, Strategy{Kind: Fixed, P: 3}, 5, 0xb2e5cdbc21211725},
		{"pla85900", pla.Cities, semi3, 14, 0x7301ac336b4d8750},
		{"pla85900", pla.Cities, Strategy{Kind: Arbitrary}, 14, 0x24f184dff4a5d77b},
	}
	for _, c := range cases {
		h, err := Build(c.cities, c.s)
		if err != nil {
			t.Fatalf("%s %v: %v", c.name, c.s, err)
		}
		if got := hierarchyFingerprint(h); h.NumLevels() != c.levels || got != c.want {
			t.Errorf("%s %v: %d levels, fingerprint %#x; golden %d levels, %#x",
				c.name, c.s, h.NumLevels(), got, c.levels, c.want)
		}
	}
}

// BenchmarkBuildSemiFlex3Pla85900 times the clustering of the paper's
// headline instance.
func BenchmarkBuildSemiFlex3Pla85900(b *testing.B) {
	pla, err := tsplib.Load("pla85900")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(pla.Cities, Strategy{Kind: SemiFlex, P: 3}); err != nil {
			b.Fatal(err)
		}
	}
}
