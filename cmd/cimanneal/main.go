// Command cimanneal solves a TSP instance with the clustered noisy-CIM
// annealer and prints the tour quality, annealing statistics and the
// modelled hardware cost.
//
// Usage:
//
//	cimanneal -name pcb3038                 # built-in registry instance
//	cimanneal -file problem.tsp             # TSPLIB95 file
//	cimanneal -random 5000                  # synthetic uniform instance
//	cimanneal -name rl5915 -pmax 4 -seed 7 -tour out.txt
//
// Other problem types run as subcommands through the same registry
// adapters the cimserve service uses:
//
//	cimanneal maxcut -n 512 -density 0.05 -sweeps 400
//	cimanneal ising -n 64 -density 0.5 -algorithm sca
//	cimanneal qubo -n 32 -density 0.3 -seed 7
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"

	"cimsa"
	"cimsa/internal/tsplib"
	"cimsa/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cimanneal: ")
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "maxcut", "ising", "qubo":
			runProblem(os.Args[1], os.Args[2:])
			return
		}
	}
	runTSP()
}

func runTSP() {
	var (
		name     = flag.String("name", "", "built-in instance name (see -list)")
		file     = flag.String("file", "", "TSPLIB95 .tsp file to solve")
		random   = flag.Int("random", 0, "generate a uniform random instance of this size")
		pmax     = flag.Int("pmax", 3, "maximum cluster size (2-8)")
		seed     = flag.Uint64("seed", 1, "random seed")
		mode     = flag.String("mode", "noisy-cim", "randomness source: noisy-cim | metropolis | greedy | noisy-spins")
		fabric   = flag.String("fabric", "", "noise substrate: sram (default) | mram | fefet | clean")
		fabSeed  = flag.Uint64("fabric-seed", 0, "pin the fabricated chip explicitly (0 derives it from -seed)")
		restarts = flag.Int("restarts", 1, "independent replicas; the best tour wins")
		workers  = flag.String("workers", "auto", "worker-pool size: auto or 0 (pick from instance size), 1 (sequential) or a count; results are identical for any value")
		timeout  = flag.Duration("timeout", 0, "abort the solve after this long, e.g. 90s or 10m (0 = no limit)")
		ckptDir  = flag.String("checkpoint", "", "write durable solve checkpoints to this directory (one file per instance+seed)")
		ckptN    = flag.Int("checkpoint-every", 1, "with -checkpoint: write one snapshot per this many write-back epochs")
		resume   = flag.Bool("resume", false, "with -checkpoint: continue from the directory's checkpoint if one exists")
		killApt  = flag.Int("kill-after", 0, "exit uncleanly (status 137) after this many completed checkpoint writes — crash testing only")
		tourOut  = flag.String("tour", "", "write the visiting order to this file")
		svgOut   = flag.String("svg", "", "render the tour to this SVG file")
		noRef    = flag.Bool("noref", false, "skip the classical reference solver")
		noHW     = flag.Bool("nohw", false, "skip the hardware PPA report")
		listOnly = flag.Bool("list", false, "list built-in instances and exit")
	)
	flag.Parse()

	if *listOnly {
		for _, n := range cimsa.InstanceNames() {
			fmt.Println(n)
		}
		return
	}

	in, err := loadInstance(*name, *file, *random, *seed)
	if err != nil {
		log.Fatal(err)
	}
	nWorkers, err := parseWorkers(*workers)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := cimsa.Options{
		PMax:         *pmax,
		Seed:         *seed,
		Reference:    !*noRef,
		SkipHardware: *noHW,
		Mode:         *mode,
		Fabric:       *fabric,
		FabricSeed:   *fabSeed,
		Restarts:     *restarts,
		Workers:      nWorkers,
	}
	if *ckptDir != "" {
		opt.Checkpoint = cimsa.Checkpoint{
			Dir:         *ckptDir,
			EveryEpochs: *ckptN,
			Resume:      *resume,
			OnResume: func(path string) {
				log.Printf("resuming from checkpoint %s", path)
			},
		}
		writes := 0
		opt.Checkpoint.OnWrite = func(path string) {
			writes++
			if *killApt > 0 && writes >= *killApt {
				// Crash-testing hook: die the way SIGKILL would, right
				// after a snapshot hit disk, with no cleanup at all.
				os.Exit(137)
			}
		}
		// SIGINT flushes a resumable snapshot before exiting: the solver
		// observes the cancellation at an iteration boundary and writes
		// its state through the checkpoint hook on the way out.
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt)
		defer stop()
	} else if *resume || *killApt > 0 {
		log.Fatal("-resume and -kill-after need -checkpoint")
	}
	rep, err := cimsa.SolveContext(ctx, in, opt)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			log.Fatalf("solve exceeded -timeout %v on %s (%d cities)", *timeout, in.Name, in.N())
		}
		if errors.Is(err, context.Canceled) && *ckptDir != "" {
			log.Printf("interrupted; state saved to %s", *ckptDir)
			log.Printf("resume with: -checkpoint %s -resume (and the same instance, seed and options)", *ckptDir)
			os.Exit(130)
		}
		log.Fatal(err)
	}

	fmt.Printf("instance      %s (%d cities)\n", rep.Instance, rep.N)
	fmt.Printf("tour length   %.0f\n", rep.Length)
	if rep.ReferenceLength > 0 {
		fmt.Printf("reference     %.0f (optimal ratio %.3f)\n", rep.ReferenceLength, rep.OptimalRatio)
	}
	st := rep.Solver
	fmt.Printf("annealing     %d levels, %d iterations, %d/%d swaps accepted\n",
		st.Levels, st.Iterations, st.Accepted, st.Proposed)
	fmt.Printf("dataflow      %d write-backs, %.1f kb inter-array boundary traffic\n",
		st.WriteBacks, float64(st.BoundaryTransferBits)/1000)
	if rep.Chip.AreaMM2 > 0 {
		c := rep.Chip
		fmt.Printf("hardware      %d windows in %d arrays, %.1f Mb SRAM\n",
			c.Windows, c.Arrays, float64(c.PhysicalWeightBits)/1e6)
		fmt.Printf("              %.2f mm², %.0f mW, time-to-solution %.1f µs, energy %.2f µJ\n",
			c.AreaMM2, c.PowerMW, c.LatencySeconds*1e6, c.EnergyJ*1e6)
	}

	if *tourOut != "" {
		f, err := os.Create(*tourOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := tsplib.WriteTour(f, rep.Instance, rep.Tour); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tour written  %s (TSPLIB .tour format)\n", *tourOut)
	}
	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			log.Fatal(err)
		}
		title := fmt.Sprintf("%s: %.0f", rep.Instance, rep.Length)
		if err := viz.WriteSVG(f, in, rep.Tour, viz.Options{ShowCities: in.N() <= 5000, Title: title}); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("svg written   %s\n", *svgOut)
	}
}

// parseWorkers maps the -workers flag onto Options.Workers: "auto"
// becomes 0, anything else must be a non-negative count.
func parseWorkers(s string) (int, error) {
	if s == "auto" {
		return cimsa.WorkersAuto, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("-workers must be a non-negative count or \"auto\", got %q", s)
	}
	return n, nil
}

func loadInstance(name, file string, random int, seed uint64) (*cimsa.Instance, error) {
	switch {
	case name != "" && file == "" && random == 0:
		return cimsa.LoadNamed(name)
	case file != "" && name == "" && random == 0:
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return cimsa.LoadInstance(f)
	case random > 0 && name == "" && file == "":
		return cimsa.GenerateInstance(fmt.Sprintf("random%d", random), random, seed), nil
	default:
		return nil, fmt.Errorf("specify exactly one of -name, -file, -random")
	}
}
