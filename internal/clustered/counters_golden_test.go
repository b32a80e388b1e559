package clustered

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cimsa/internal/ppa"
	"cimsa/internal/tsplib"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current output")

// TestCounterGolden pins every Stats counter, and the chip report the
// facade derives from them, for each read-path golden solve plus the
// two clean-weight modes (greedy and metropolis). The read-path goldens
// pin tours, lengths and acceptances; this pins the rest — write-backs,
// weight writes, cycles, boundary traffic, proposals — at every worker
// count the case runs.
func TestCounterGolden(t *testing.T) {
	cases := readPathCases()
	for _, m := range []Mode{ModeGreedy, ModeMetropolis} {
		m := m
		cases = append(cases, readPathCase{
			name: m.String(), n: 600, workers: []int{1, 2},
			opts: func() Options { return solveOpts(m, 37) },
		})
	}
	var got bytes.Buffer
	for _, tc := range cases {
		in := tsplib.Generate("readpath-"+tc.name, tc.n, tsplib.StyleClustered, 71)
		for _, wk := range tc.workers {
			o := tc.opts()
			o.Workers = wk
			res, err := Solve(in, o)
			if err != nil {
				t.Fatal(err)
			}
			o = o.withDefaults()
			prof := ppa.RunProfile{Levels: res.Stats.Levels, IterationsPerLevel: o.Schedule.TotalIters(), EpochIters: o.Schedule.EpochIters}
			chip, err := ppa.Chip(in.N(), o.Strategy.P, prof, ppa.Tech16nm())
			if err != nil {
				t.Fatal(err)
			}
			out, err := json.Marshal(struct {
				Solver Stats
				Chip   ppa.ChipReport
			}{res.Stats, chip})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s workers=%d\n%s\n", tc.name, wk, out)
		}
	}
	path := filepath.Join("testdata", "counters.golden")
	if *updateGolden {
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
				t.Fatalf("counters drifted from %s at line %d:\n got %.400s\nwant %.400s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("counters drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
