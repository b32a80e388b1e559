package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"cimsa"
	"cimsa/internal/cluster"
	"cimsa/internal/clustered"
	"cimsa/internal/heuristics"
	"cimsa/internal/noise"
	"cimsa/internal/tsplib"
)

// qualityScale and qualitySeeds fix the TSP quality record's workload:
// every Fig. 7 dataset at a quarter of its published size, one
// synthetic instance and one solve per seed. A cell's ratios spread by
// about 3% across seeds, so 32 seeds keep benchgate's 4-SE limit near
// 3% of the ratio.
var (
	qualityScale = 0.25
	qualitySeeds = func() (s []uint64) {
		for seed := uint64(1); seed <= 32; seed++ {
			s = append(s, seed)
		}
		return s
	}()
)

// qualityRecord is BENCH_quality.json. Every field but the wall time
// and the machine's CPU counts is a function of the code, so a change
// that keeps results bit-identical reproduces it byte for byte.
type qualityRecord struct {
	SolverVersion string        `json:"solver_version"`
	Scale         float64       `json:"scale"`
	Seeds         []uint64      `json:"seeds"`
	Method        string        `json:"method"`
	WallSeconds   float64       `json:"wall_seconds"`
	NumCPU        int           `json:"num_cpu"`
	GoMaxProcs    int           `json:"gomaxprocs"`
	Cells         []qualityCell `json:"cells"`
}

// qualityCell is one (dataset, p_max, fabric) cell: the ratio of the
// annealed tour to heuristics.Reference at every seed, in seed order,
// with their mean and sample standard deviation.
type qualityCell struct {
	Dataset string    `json:"dataset"`
	N       int       `json:"n"`
	PMax    int       `json:"pmax"`
	Fabric  string    `json:"fabric"`
	Ratios  []float64 `json:"ratios"`
	Mean    float64   `json:"mean"`
	SD      float64   `json:"sd"`
}

// TestEmitQualityRecord solves every (dataset in Fig7Datasets, p_max
// 2/3/4, fabric in noise.Kinds()) cell at qualitySeeds and writes the
// per-cell ratios to heuristics.Reference to the path named by
// CIMSA_EMIT_QUALITY; it skips when that variable is unset. Seed s
// solves the scaledLoad instance of Config{Seed: s} with Fig. 7's solve
// seed s+7 and the fabric seeded as the default SRAM fabric would be,
// so each SRAM cell's ratio is Fig7's at that seed and scale.
// cmd/benchgate -quality compares two records. To capture from the
// repository root (about 2 minutes on 2 vCPUs):
//
//	CIMSA_EMIT_QUALITY=$PWD/BENCH_quality.json go test -run TestEmitQualityRecord -count=1 -timeout 60m ./internal/experiments/
func TestEmitQualityRecord(t *testing.T) {
	path := os.Getenv("CIMSA_EMIT_QUALITY")
	if path == "" {
		t.Skip("set CIMSA_EMIT_QUALITY to the output path to measure and write the quality record")
	}
	start := time.Now()
	type instance struct {
		in  *tsplib.Instance
		ref float64
	}
	datasets := Fig7Datasets()
	pmaxes := []int{2, 3, 4}
	kinds := noise.Kinds()
	// insts[d][s] is dataset d's instance at seed index s.
	insts := make([][]instance, len(datasets))
	type solve struct{ d, s, p, f int }
	var solves []solve
	for d := range datasets {
		insts[d] = make([]instance, len(qualitySeeds))
		for s := range qualitySeeds {
			for p := range pmaxes {
				for f := range kinds {
					solves = append(solves, solve{d, s, p, f})
				}
			}
		}
	}
	// Instances and references first, then every solve, each spread over
	// GOMAXPROCS goroutines that solve sequentially.
	parallel := func(n int, work func(i int) error) {
		var wg sync.WaitGroup
		errs := make([]error, n)
		next := make(chan int)
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					errs[i] = work(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	parallel(len(datasets)*len(qualitySeeds), func(i int) error {
		d, s := i/len(qualitySeeds), i%len(qualitySeeds)
		in, _, err := scaledLoad(datasets[d], Config{Seed: qualitySeeds[s], Scale: qualityScale})
		if err != nil {
			return err
		}
		_, ref := heuristics.Reference(in)
		if ref <= 0 {
			return fmt.Errorf("degenerate reference on %s", in.Name)
		}
		insts[d][s] = instance{in, ref}
		return nil
	})
	ratios := make([]float64, len(solves))
	parallel(len(solves), func(i int) error {
		sv := solves[i]
		seed := qualitySeeds[sv.s] + 7
		fab, err := noise.New(kinds[sv.f], seed^0xfab)
		if err != nil {
			return err
		}
		inst := insts[sv.d][sv.s]
		res, err := clustered.Solve(inst.in, clustered.Options{
			Strategy: cluster.Strategy{Kind: cluster.SemiFlex, P: pmaxes[sv.p]},
			Fabric:   fab,
			Seed:     seed,
			Workers:  1,
		})
		if err != nil {
			return fmt.Errorf("%s p=%d %s seed %d: %w", inst.in.Name, pmaxes[sv.p], kinds[sv.f], seed, err)
		}
		ratios[i] = res.Length / inst.ref
		return nil
	})

	rec := qualityRecord{
		SolverVersion: cimsa.SolverVersion,
		Scale:         qualityScale,
		Seeds:         qualitySeeds,
		Method: "ratio = clustered tour length / heuristics.Reference length; " +
			"instance: scaledLoad(dataset, Config{Seed: s, Scale}); solve seed s+7, fabric seed (s+7)^0xfab; sd is the sample standard deviation",
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	// solves is ordered (dataset, seed, p_max, fabric); cells are
	// (dataset, p_max, fabric) with ratios in seed order.
	for d, name := range datasets {
		for p, pmax := range pmaxes {
			for f, kind := range kinds {
				c := qualityCell{Dataset: name, N: insts[d][0].in.N(), PMax: pmax, Fabric: kind}
				for s := range qualitySeeds {
					c.Ratios = append(c.Ratios, ratios[((d*len(qualitySeeds)+s)*len(pmaxes)+p)*len(kinds)+f])
				}
				sum := summarize(name, c.Ratios)
				c.Mean, c.SD = sum.MeanRatio, sum.StdDev
				rec.Cells = append(rec.Cells, c)
			}
		}
	}
	rec.WallSeconds = math.Round(time.Since(start).Seconds()*10) / 10
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d cells in %.1f s", path, len(rec.Cells), rec.WallSeconds)
}
