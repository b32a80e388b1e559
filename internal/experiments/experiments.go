// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment has a typed runner returning the rows the
// paper reports and a renderer that prints them; cmd/cimexperiments
// drives them all and EXPERIMENTS.md records paper-vs-measured values.
//
// Hardware metrics (capacity, area, latency, energy) are always computed
// for the full published instance sizes — they are closed-form in N.
// Solution-quality metrics require actually running the annealer; Config
// Scale lets tests and quick runs solve proportionally smaller synthetic
// instances of the same family (the full-scale run is the default for
// the CLI and benches).
package experiments

import (
	"fmt"

	"cimsa/internal/cluster"
	"cimsa/internal/clustered"
	"cimsa/internal/heuristics"
	"cimsa/internal/tsplib"
)

// Config tunes experiment cost.
type Config struct {
	// Seed drives every stochastic component.
	Seed uint64
	// Scale in (0, 1] shrinks solved instances; 0 means 1.0 (full size).
	Scale float64
	// MCSamples is the Fig. 6 Monte Carlo population; 0 means the
	// paper's 1000.
	MCSamples int
	// Workers sets the solver's worker-pool size for every solved
	// workload; 0 = auto (picked from the instance size), 1 =
	// sequential. Results are bit-identical for any value, only wall
	// time changes.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = 1
	}
	if c.MCSamples <= 0 {
		c.MCSamples = 1000
	}
	return c
}

// scaledLoad synthesizes the named instance at the configured scale. The
// instance keeps its family style; a scaled run is labelled so results
// are never mistaken for full-size ones.
func scaledLoad(name string, cfg Config) (*tsplib.Instance, int, error) {
	k, err := tsplib.Lookup(name)
	if err != nil {
		return nil, 0, err
	}
	n := int(float64(k.N) * cfg.Scale)
	if n < 60 {
		n = 60
	}
	if n > k.N {
		n = k.N
	}
	label := name
	if n != k.N {
		label = fmt.Sprintf("%s@%d", name, n)
	}
	return tsplib.Generate(label, n, tsplib.StyleForName(name), cfg.Seed+1), k.N, nil
}

// solveRatio runs the clustered annealer and the classical reference on
// the instance and returns the optimal ratio.
func solveRatio(in *tsplib.Instance, strategy cluster.Strategy, mode clustered.Mode, seed uint64, workers int) (float64, clustered.Stats, error) {
	res, err := clustered.Solve(in, clustered.Options{Strategy: strategy, Mode: mode, Seed: seed, Workers: workers})
	if err != nil {
		return 0, clustered.Stats{}, err
	}
	ratio, err := refRatio(in, res.Length)
	return ratio, res.Stats, err
}

// refRatio computes length / reference-length for an instance.
func refRatio(in *tsplib.Instance, length float64) (float64, error) {
	_, ref := heuristics.Reference(in)
	if ref <= 0 {
		return 0, fmt.Errorf("experiments: degenerate reference on %s", in.Name)
	}
	return length / ref, nil
}
