// Command benchgate is the CI perf-regression gate for the solve
// benchmarks. It compares a freshly measured benchmark file (written by
// TestEmitSolveBench with CIMSA_BENCH_OUT) against the committed
// BENCH_solve.json snapshot and exits non-zero when the pooled dispatch
// path has regressed.
//
// Two checks run:
//
//  1. Ratio drift: at every instance size present in both files, the
//     measured pooled/sequential time ratio must not exceed the
//     committed ratio by more than -tolerance. This is hardware-neutral
//     — a slower runner slows both modes — so it catches dispatch
//     overhead creeping back in even when absolute times are useless.
//
//  2. Absolute speedup: on runners with at least -min-cpus CPUs, the
//     measured sequential/pooled speedup at -require-at cities must
//     reach -require-speedup. On smaller runners (where a pool cannot
//     win by physics) the check is skipped with a note.
//
// With -quality it instead gates a TSP quality record against the
// committed BENCH_quality.json; quality.go states the rule.
//
// Usage:
//
//	benchgate -committed BENCH_solve.json -measured bench_ci.json
//	benchgate -quality -committed BENCH_quality.json -measured quality_ci.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
)

// benchFile mirrors the JSON written by TestEmitSolveBench; unknown
// fields are ignored so the gate survives snapshot format growth.
type benchFile struct {
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Results    []benchResult `json:"results"`
}

type benchResult struct {
	Cities  int     `json:"cities"`
	Mode    string  `json:"mode"`
	Seconds float64 `json:"seconds_per_solve"`
}

// gateConfig are the thresholds the comparison runs under.
type gateConfig struct {
	// Tolerance is the allowed relative increase of the measured
	// pooled/sequential ratio over the committed one (0.15 = 15%).
	Tolerance float64
	// RequireSpeedup is the sequential/pooled speedup the measured file
	// must show at RequireAt cities — enforced only when the measuring
	// runner had at least MinCPUs CPUs.
	RequireSpeedup float64
	RequireAt      int
	MinCPUs        int
}

// seconds returns the time for (cities, mode), or ok=false.
func (f *benchFile) seconds(cities int, mode string) (float64, bool) {
	for _, r := range f.Results {
		if r.Cities == cities && r.Mode == mode {
			return r.Seconds, true
		}
	}
	return 0, false
}

// ratio returns pooled/sequential at the given size, or ok=false when
// either mode is missing or the sequential time is non-positive.
func (f *benchFile) ratio(cities int) (float64, bool) {
	seq, ok1 := f.seconds(cities, "sequential")
	par, ok2 := f.seconds(cities, "pooled")
	if !ok1 || !ok2 || seq <= 0 {
		return 0, false
	}
	return par / seq, true
}

// sizes returns the distinct instance sizes in file order.
func (f *benchFile) sizes() []int {
	var out []int
	seen := map[int]bool{}
	for _, r := range f.Results {
		if !seen[r.Cities] {
			seen[r.Cities] = true
			out = append(out, r.Cities)
		}
	}
	return out
}

// gate runs both checks and returns the violations (empty = pass) and
// informational notes (always worth printing).
func gate(committed, measured *benchFile, cfg gateConfig) (violations, notes []string) {
	compared := 0
	for _, size := range committed.sizes() {
		want, ok := committed.ratio(size)
		if !ok {
			continue
		}
		got, ok := measured.ratio(size)
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%d cities: committed snapshot has a pooled/sequential pair but the measured file does not", size))
			continue
		}
		compared++
		limit := want * (1 + cfg.Tolerance)
		if got > limit {
			violations = append(violations,
				fmt.Sprintf("%d cities: pooled/sequential ratio %.3f exceeds committed %.3f + %.0f%% tolerance (limit %.3f)",
					size, got, want, cfg.Tolerance*100, limit))
		} else {
			notes = append(notes,
				fmt.Sprintf("%d cities: ratio %.3f within limit %.3f (committed %.3f)", size, got, limit, want))
		}
	}
	if compared == 0 {
		violations = append(violations, "no comparable pooled/sequential pairs between the two files")
	}
	if cfg.RequireSpeedup > 0 && cfg.RequireAt > 0 {
		if measured.NumCPU < cfg.MinCPUs {
			notes = append(notes,
				fmt.Sprintf("speedup check skipped: runner has %d CPUs, need %d for a pool to win", measured.NumCPU, cfg.MinCPUs))
		} else if r, ok := measured.ratio(cfg.RequireAt); !ok {
			violations = append(violations,
				fmt.Sprintf("speedup check impossible: measured file lacks a pooled/sequential pair at %d cities", cfg.RequireAt))
		} else if speedup := 1 / r; speedup < cfg.RequireSpeedup {
			violations = append(violations,
				fmt.Sprintf("%d cities: pooled speedup %.2fx below required %.2fx on a %d-CPU runner",
					cfg.RequireAt, speedup, cfg.RequireSpeedup, measured.NumCPU))
		} else {
			notes = append(notes,
				fmt.Sprintf("%d cities: pooled speedup %.2fx meets required %.2fx", cfg.RequireAt, speedup, cfg.RequireSpeedup))
		}
	}
	return violations, notes
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	var (
		committedPath = flag.String("committed", "BENCH_solve.json", "committed benchmark snapshot")
		measuredPath  = flag.String("measured", "", "freshly measured benchmark file (required)")
		tolerance     = flag.Float64("tolerance", 0.15, "allowed relative pooled/sequential ratio drift")
		reqSpeedup    = flag.Float64("require-speedup", 1.2, "required sequential/pooled speedup (0 disables)")
		reqAt         = flag.Int("require-at", 10000, "instance size the speedup is required at")
		minCPUs       = flag.Int("min-cpus", 4, "skip the speedup check below this many runner CPUs")
		quality       = flag.Bool("quality", false, "gate TSP quality records (BENCH_quality.json) instead of solve timings")
	)
	flag.Parse()
	if *measuredPath == "" {
		log.Fatal("-measured is required")
	}
	var violations, notes []string
	if *quality {
		committed, err := loadQuality(*committedPath)
		if err != nil {
			log.Fatal(err)
		}
		measured, err := loadQuality(*measuredPath)
		if err != nil {
			log.Fatal(err)
		}
		violations, notes = gateQuality(committed, measured)
	} else {
		committed, err := load(*committedPath)
		if err != nil {
			log.Fatal(err)
		}
		measured, err := load(*measuredPath)
		if err != nil {
			log.Fatal(err)
		}
		violations, notes = gate(committed, measured, gateConfig{
			Tolerance:      *tolerance,
			RequireSpeedup: *reqSpeedup,
			RequireAt:      *reqAt,
			MinCPUs:        *minCPUs,
		})
	}
	for _, n := range notes {
		fmt.Println("ok:", n)
	}
	for _, v := range violations {
		fmt.Println("FAIL:", v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
	fmt.Println("benchgate: pass")
}
