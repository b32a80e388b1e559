package experiments

import (
	"fmt"
	"io"
	"time"

	"cimsa/internal/anneal"
	"cimsa/internal/cluster"
	"cimsa/internal/clustered"
	"cimsa/internal/heuristics"
	"cimsa/internal/tour"
)

// BaselineRow compares one solver on the shared workload.
type BaselineRow struct {
	Solver       string
	Length       float64
	OptimalRatio float64
	// WallSeconds is the measured software runtime (not the modelled
	// hardware time; the hardware numbers live in the speedup
	// experiment).
	WallSeconds float64
}

// Baselines runs every solver in the repository on one instance:
// the clustered noisy-CIM annealer, classical simulated annealing with
// the same PBM move set, parallel tempering, the space-filling-curve
// constructor, nearest-neighbour + 2-opt, and the full reference
// pipeline. It is the algorithm-level context for the paper's
// convergence claims.
func Baselines(cfg Config) ([]BaselineRow, error) {
	c := cfg.withDefaults()
	in, _, err := scaledLoad("pcb3038", c)
	if err != nil {
		return nil, err
	}
	_, ref := heuristics.Reference(in)
	if ref <= 0 {
		return nil, fmt.Errorf("experiments: degenerate reference")
	}
	var rows []BaselineRow
	add := func(name string, run func() tour.Tour) error {
		start := time.Now()
		t := run()
		wall := time.Since(start).Seconds()
		if err := t.Validate(in.N()); err != nil {
			return fmt.Errorf("experiments: %s produced invalid tour: %w", name, err)
		}
		length := t.Length(in)
		rows = append(rows, BaselineRow{
			Solver:       name,
			Length:       length,
			OptimalRatio: length / ref,
			WallSeconds:  wall,
		})
		return nil
	}
	nl := heuristics.BuildNeighbors(in, 10)
	steps := []struct {
		name string
		run  func() tour.Tour
	}{
		{"clustered noisy-CIM (this work)", func() tour.Tour {
			res, err := clustered.Solve(in, clustered.Options{
				Strategy: cluster.Strategy{Kind: cluster.SemiFlex, P: 3},
				Seed:     c.Seed + 29,
				Workers:  c.Workers,
			})
			if err != nil {
				panic(err)
			}
			return res.Tour
		}},
		{"simulated annealing (PBM swaps)", func() tour.Tour {
			// Warm-started from the same constructor as the others so the
			// comparison isolates the search, not the starting point.
			init := heuristics.SpaceFilling(in)
			return anneal.TSP(in, anneal.TSPOptions{Sweeps: 300, Seed: c.Seed + 29, Initial: init}).Tour
		}},
		{"parallel tempering (4 replicas)", func() tour.Tour {
			init := heuristics.SpaceFilling(in)
			return anneal.TemperingTSP(in, anneal.TemperingOptions{Sweeps: 80, Seed: c.Seed + 29, Initial: init}).Tour
		}},
		{"space-filling curve", func() tour.Tour {
			return heuristics.SpaceFilling(in)
		}},
		{"nearest neighbour + 2-opt", func() tour.Tour {
			return heuristics.TwoOpt(in, nl, heuristics.NearestNeighbor(in, nl, 0), 0)
		}},
		{"reference (greedy+2opt+oropt)", func() tour.Tour {
			t, _ := heuristics.Reference(in)
			return t
		}},
	}
	for _, s := range steps {
		if err := add(s.name, s.run); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// RenderBaselines prints the comparison.
func RenderBaselines(w io.Writer, rows []BaselineRow) {
	fmt.Fprintf(w, "Baselines — solver comparison on pcb3038 (software wall time)\n")
	fmt.Fprintf(w, "%-34s %12s %14s %12s\n", "solver", "length", "optimal ratio", "wall (s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %12.0f %14.3f %12.4f\n", r.Solver, r.Length, r.OptimalRatio, r.WallSeconds)
	}
}
