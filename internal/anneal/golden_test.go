package anneal_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cimsa/internal/anneal"
	"cimsa/internal/heuristics"
	"cimsa/internal/maxcut"
	"cimsa/internal/tsplib"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current output")

// hashInts is an FNV-64a digest of a tour or spin vector.
func hashInts[T int | int8](xs []T) uint64 {
	h := fnv.New64a()
	for _, x := range xs {
		v := uint64(int64(x))
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestBaselinesGolden pins the software baselines byte for byte: the
// TSP annealer and parallel tempering at the call shapes of the
// experiments' baseline table, Metropolis at the default schedule and
// at maxcut's edge-scaled one, and SCA at its defaults. Regenerate with
// -update only for a deliberate change of results.
func TestBaselinesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range []struct {
		style tsplib.Style
		n     int
		seed  uint64
	}{{tsplib.StyleUniform, 120, 1}, {tsplib.StyleClustered, 200, 2}} {
		in := tsplib.Generate("baseline-golden", c.n, c.style, c.seed)
		init := heuristics.SpaceFilling(in)
		sa := anneal.TSP(in, anneal.TSPOptions{Sweeps: 300, Seed: c.seed + 29, Initial: init})
		fmt.Fprintf(&got, "tsp n=%d seed=%d length=%016x tour=%016x proposed=%d accepted=%d\n",
			c.n, c.seed, math.Float64bits(sa.Length), hashInts(sa.Tour), sa.Proposed, sa.Accepted)
		pt := anneal.TemperingTSP(in, anneal.TemperingOptions{Sweeps: 80, Seed: c.seed + 29, Initial: init})
		fmt.Fprintf(&got, "tempering n=%d seed=%d length=%016x tour=%016x exchanges=%d/%d\n",
			c.n, c.seed, math.Float64bits(pt.Length), hashInts(pt.Tour), pt.Exchanges, pt.ExchangeAttempts)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		g := maxcut.Random(96, 0.1, seed)
		m, err := g.ToIsing()
		if err != nil {
			t.Fatal(err)
		}
		maxW := 0.0
		for _, e := range g.Edges {
			maxW = math.Max(maxW, e.W)
		}
		for _, s := range []struct {
			name string
			opts anneal.Options
		}{
			{"default", anneal.Options{Sweeps: 150, Seed: seed}},
			{"maxcut", anneal.Options{Sweeps: 150, Seed: seed, Schedule: anneal.Geometric{Start: 2 * maxW, End: maxW / 100}}},
		} {
			spins := anneal.RandomSpins(m.N, seed)
			res, err := anneal.IsingContext(context.Background(), m, spins, s.opts)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "metropolis schedule=%s seed=%d energy=%016x spins=%016x proposed=%d accepted=%d\n",
				s.name, seed, math.Float64bits(res.Energy), hashInts(spins), res.Proposed, res.Accepted)
		}
		sca, err := anneal.SCA(m, anneal.SCAOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "sca seed=%d energy=%016x spins=%016x flips=%d tail=%d\n",
			seed, math.Float64bits(sca.Energy), hashInts(sca.Spins), sca.Flips, sca.TailFlips)
	}
	path := filepath.Join("testdata", "baselines.golden")
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
		t.Fatalf("baselines drifted from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
