package faultinject

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current output")

// ciSeeds lists the seeds of every batch CI runs for a family: starts
// 1, 11, 21 and 31, n seeds each.
func ciSeeds(n uint64) []uint64 {
	var out []uint64
	for _, start := range []uint64{1, 11, 21, 31} {
		for s := start; s < start+n; s++ {
			out = append(out, s)
		}
	}
	return out
}

func opsString(ops []Op) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = fmt.Sprintf("%s(%d)", op.Kind, op.Arg)
	}
	return strings.Join(parts, " ")
}

func scheduleString(sc Schedule) string {
	names := make([]string, 0, len(sc.Policies))
	for name := range sc.Policies {
		names = append(names, name)
	}
	sort.Strings(names)
	pols := make([]string, len(names))
	for i, name := range names {
		p := sc.Policies[name]
		pols[i] = fmt.Sprintf("%s{w=%d maxq=%d maxrun=%d rate=%g burst=%d}",
			name, p.Weight, p.MaxQueued, p.MaxRunning, p.RatePerSec, p.Burst)
	}
	return fmt.Sprintf("slots=%d depth=%d replay=%d cache=%d tenants=%q policies=[%s] ops: %s",
		sc.Slots, sc.Depth, sc.Replay, sc.CacheEntries, sc.Tenants, strings.Join(pols, " "), opsString(sc.Ops))
}

// scheduleFamilies renders each generator's schedule for a seed, every
// dimension but the seed itself, alongside the seeds CI runs for it.
var scheduleFamilies = []struct {
	name   string
	seeds  []uint64
	render func(seed uint64) string
}{
	{"serve", ciSeeds(8), func(seed uint64) string { return scheduleString(GenSchedule(seed)) }},
	{"tenant", ciSeeds(6), func(seed uint64) string { return scheduleString(GenTenantSchedule(seed)) }},
	{"resume", ciSeeds(4), func(seed uint64) string {
		sc := GenResumeSchedule(seed)
		return fmt.Sprintf("n=%d inst=%d solver=%d workers=%v ops: %s",
			sc.N, sc.InstSeed, sc.SolverSeed, sc.Workers, opsString(sc.Ops))
	}},
	{"fleet", ciSeeds(4), func(seed uint64) string {
		sc := GenFleetSchedule(seed)
		return fmt.Sprintf("jobs=%d n=%d inst=%d solver=%d workers=%d ops: %s",
			sc.Jobs, sc.N, sc.InstSeed, sc.SolverSeed, sc.Workers, opsString(sc.Ops))
	}},
}

// TestScheduleGolden pins seed → schedule for every seed CI runs, so a
// failure printed with its seed replays the identical schedule.
// Regenerate with `go test ./internal/faultinject -run TestScheduleGolden -update`
// only when a generator change is intended.
func TestScheduleGolden(t *testing.T) {
	var got bytes.Buffer
	for _, f := range scheduleFamilies {
		for _, seed := range f.seeds {
			fmt.Fprintf(&got, "%s seed=%d %s\n", f.name, seed, f.render(seed))
		}
	}
	path := filepath.Join("testdata", "schedules.golden")
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
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("generated schedules differ from %s; a seed no longer replays its schedule.\ngot:\n%s", path, got.Bytes())
	}
}

// TestGeneratedScheduleProperties checks what the golden cannot: that a
// seed actually steers each generator, and that no generated fleet
// schedule packs more than two lease-expiry faults into one
// coordinator era (the per-node conservation check needs a settling
// node to outlive the three-lease forget horizon).
func TestGeneratedScheduleProperties(t *testing.T) {
	for _, f := range scheduleFamilies {
		t.Run(f.name+"-seeds-differ", func(t *testing.T) {
			if f.render(42) == f.render(43) {
				t.Fatal("different seeds produced identical schedules")
			}
		})
	}
	t.Run("fleet-expiry-cap", func(t *testing.T) {
		for seed := uint64(0); seed < 200; seed++ {
			sc := GenFleetSchedule(seed)
			expiry := 0
			for _, op := range sc.Ops {
				switch op.Kind {
				case FKill, FBlackhole:
					expiry++
				case FRestart:
					expiry = 0
				}
				if expiry > 2 {
					t.Fatalf("seed %d: more than two lease-expiry ops in one era: %+v", seed, sc.Ops)
				}
			}
		}
	})
}
