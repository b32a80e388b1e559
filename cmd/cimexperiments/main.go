// Command cimexperiments regenerates every table and figure of the
// paper's evaluation and prints them in order. Use -run to select one
// experiment, -scale to shrink the solved instances for a quick pass
// (hardware metrics always use the full published sizes).
//
// Usage:
//
//	cimexperiments                      # everything, full scale (minutes)
//	cimexperiments -scale 0.1           # quick pass
//	cimexperiments -run table1,fig6
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"cimsa/internal/experiments"
)

// steps are the experiment names -run accepts (besides "all"), in the
// order they run.
var steps = []string{"fig1", "table1", "fig6", "fig7", "table2", "table3", "speedup", "baselines", "fabrics", "stability", "convergence", "ablations", "relatedwork"}

// parseRun parses the -run list into the set of selected names,
// rejecting any name that is not "all" or a step.
func parseRun(list string) (map[string]bool, error) {
	selected := map[string]bool{}
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s != "all" && !slices.Contains(steps, s) {
			return nil, fmt.Errorf("unknown -run name %q (valid: all, %s)", s, strings.Join(steps, ", "))
		}
		selected[s] = true
	}
	return selected, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cimexperiments: ")
	var (
		run     = flag.String("run", "all", "comma list: all,"+strings.Join(steps, ","))
		scale   = flag.Float64("scale", 1.0, "instance scale in (0,1] for solved workloads")
		seed    = flag.Uint64("seed", 1, "seed")
		samples = flag.Int("samples", 1000, "Fig. 6 Monte Carlo samples")
		workers = flag.Int("workers", 0, "solver worker-pool size (0 = auto, 1 = sequential; results identical for any value)")
		csvDir  = flag.String("csvdir", "", "also write machine-readable CSVs into this directory")
	)
	flag.Parse()
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	writeCSV := func(name string, emit func(w io.Writer) error) {
		if *csvDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			log.Fatal(err)
		}
		if err := emit(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

	cfg := experiments.Config{Seed: *seed, Scale: *scale, MCSamples: *samples, Workers: *workers}
	selected, err := parseRun(*run)
	if err != nil {
		log.Fatal(err)
	}
	want := func(name string) bool { return selected["all"] || selected[name] }
	out := os.Stdout

	runStep := func(name string, f func() error) {
		if !want(name) {
			return
		}
		start := time.Now()
		fmt.Fprintf(out, "==== %s ====\n", name)
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(out, "(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	runStep("fig1", func() error {
		rows := experiments.Fig1()
		experiments.RenderFig1(out, rows)
		writeCSV("fig1.csv", func(w io.Writer) error { return experiments.Fig1CSV(w, rows) })
		return nil
	})
	runStep("table1", func() error {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			return err
		}
		experiments.RenderTable1(out, rows)
		writeCSV("table1.csv", func(w io.Writer) error { return experiments.Table1CSV(w, rows) })
		return nil
	})
	runStep("fig6", func() error {
		res, err := experiments.Fig6(cfg)
		if err != nil {
			return err
		}
		experiments.RenderFig6(out, res)
		writeCSV("fig6.csv", func(w io.Writer) error { return experiments.Fig6CSV(w, res) })
		return nil
	})
	runStep("fig7", func() error {
		rows, err := experiments.Fig7(cfg, nil)
		if err != nil {
			return err
		}
		experiments.RenderFig7(out, rows)
		writeCSV("fig7.csv", func(w io.Writer) error { return experiments.Fig7CSV(w, rows) })
		return nil
	})
	runStep("table2", func() error {
		rows, err := experiments.Table2()
		if err != nil {
			return err
		}
		experiments.RenderTable2(out, rows)
		return nil
	})
	runStep("table3", func() error {
		rows, err := experiments.Table3()
		if err != nil {
			return err
		}
		experiments.RenderTable3(out, rows)
		return nil
	})
	runStep("speedup", func() error {
		rows, err := experiments.Speedup(cfg)
		if err != nil {
			return err
		}
		experiments.RenderSpeedup(out, rows)
		writeCSV("speedup.csv", func(w io.Writer) error { return experiments.SpeedupCSV(w, rows) })
		return nil
	})
	runStep("baselines", func() error {
		rows, err := experiments.Baselines(cfg)
		if err != nil {
			return err
		}
		experiments.RenderBaselines(out, rows)
		return nil
	})
	runStep("fabrics", func() error {
		rows, err := experiments.FabricComparison(cfg)
		if err != nil {
			return err
		}
		experiments.RenderFabricComparison(out, rows)
		writeCSV("fabrics.csv", func(w io.Writer) error { return experiments.FabricsCSV(w, rows) })
		return nil
	})
	runStep("stability", func() error {
		rows, err := experiments.Stability(cfg, 5)
		if err != nil {
			return err
		}
		experiments.RenderStability(out, rows)
		return nil
	})
	runStep("convergence", func() error {
		series, err := experiments.Convergence(cfg)
		if err != nil {
			return err
		}
		experiments.RenderConvergence(out, series)
		writeCSV("convergence.csv", func(w io.Writer) error { return experiments.ConvergenceCSV(w, series) })
		return nil
	})
	runStep("ablations", func() error {
		modes, err := experiments.AblationModes(cfg)
		if err != nil {
			return err
		}
		experiments.RenderAblations(out, "randomness sources (pcb3038)", modes)
		sched, err := experiments.AblationSchedule(cfg)
		if err != nil {
			return err
		}
		experiments.RenderAblations(out, "noise schedules (rl5915)", sched)
		par, err := experiments.AblationParallelism(cfg)
		if err != nil {
			return err
		}
		experiments.RenderParallelism(out, par)
		prec, err := experiments.AblationPrecision(cfg)
		if err != nil {
			return err
		}
		experiments.RenderPrecision(out, prec)
		iters, err := experiments.AblationIterations(cfg)
		if err != nil {
			return err
		}
		experiments.RenderIterations(out, iters)
		return nil
	})
	runStep("relatedwork", func() error {
		rows, err := experiments.RelatedWork(cfg)
		if err != nil {
			return err
		}
		experiments.RenderRelatedWork(out, rows)
		return nil
	})
}
