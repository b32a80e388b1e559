package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
)

// The -quality gate compares two TSP quality records (BENCH_quality.json,
// written by TestEmitQualityRecord in internal/experiments). Each cell
// is one (dataset, p_max, fabric) with the ratio of the annealed tour to
// heuristics.Reference at every seed of the record.
//
// Rule, fixed before the first record was captured:
//
//   - Same solver_version on both sides: the solver promises the same
//     results, so every field except wall_seconds, num_cpu and
//     gomaxprocs must match byte for byte (after JSON compaction).
//
//   - Different solver_version (a change that declares it moves
//     results): both records must measure the same workload (scale,
//     seeds) and every committed cell must be present. A cell fails if
//     its mean ratio rises by more than qualitySigmas standard errors of
//     the difference of the two means, SE = sqrt(sd_a²/n_a + sd_b²/n_b).
//
// False-alarm rate of the statistical rule: with the record's 32 seeds
// per side and no real change, (mean_b − mean_a)/SE follows Welch's t
// with between 31 and 62 degrees of freedom, so one cell exceeds 4 with
// probability 0.018% (31 dof) to 0.0086% (62 dof), one-sided; over the
// 84 cells of the record that is a 0.7% to 1.5% chance that some cell
// fails. Both records solve the same instances at each seed, so the
// instance-to-instance spread that sd carries is shared and cancels in
// the true difference: these rates are upper bounds.
const qualitySigmas = 4

// machineFields vary from run to run and are left out of the exact
// comparison.
var machineFields = map[string]bool{"wall_seconds": true, "num_cpu": true, "gomaxprocs": true}

type qualityFile struct {
	SolverVersion string        `json:"solver_version"`
	Scale         float64       `json:"scale"`
	Seeds         []uint64      `json:"seeds"`
	Cells         []qualityCell `json:"cells"`
	// fields holds every top-level field as written, for the exact
	// comparison.
	fields map[string]json.RawMessage
}

type qualityCell struct {
	Dataset string    `json:"dataset"`
	PMax    int       `json:"pmax"`
	Fabric  string    `json:"fabric"`
	Ratios  []float64 `json:"ratios"`
	Mean    float64   `json:"mean"`
	SD      float64   `json:"sd"`
}

func (c qualityCell) name() string {
	return fmt.Sprintf("%s p=%d %s", c.Dataset, c.PMax, c.Fabric)
}

func loadQuality(path string) (*qualityFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f qualityFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal(data, &f.fields); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.SolverVersion == "" || len(f.Cells) == 0 {
		return nil, fmt.Errorf("%s: not a quality record (no solver_version or no cells)", path)
	}
	return &f, nil
}

// gateQuality applies the rule above and returns the violations (empty
// = pass) and notes.
func gateQuality(committed, measured *qualityFile) (violations, notes []string) {
	if committed.SolverVersion == measured.SolverVersion {
		return exactQuality(committed, measured)
	}
	notes = append(notes, fmt.Sprintf("solver version %s -> %s: each cell may rise by at most %d standard errors",
		committed.SolverVersion, measured.SolverVersion, qualitySigmas))
	if committed.Scale != measured.Scale || !slices.Equal(committed.Seeds, measured.Seeds) {
		return append(violations, fmt.Sprintf("records measure different workloads: scale %v seeds %v against scale %v seeds %v",
			committed.Scale, committed.Seeds, measured.Scale, measured.Seeds)), notes
	}
	got := map[string]qualityCell{}
	for _, c := range measured.Cells {
		got[c.name()] = c
	}
	var sumDiff, worstZ float64
	worst := ""
	rose, compared := 0, 0
	for _, a := range committed.Cells {
		b, ok := got[a.name()]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: cell missing from the measured record", a.name()))
			continue
		}
		compared++
		diff := b.Mean - a.Mean
		sumDiff += diff / a.Mean
		if diff > 0 {
			rose++
		}
		se := math.Sqrt(a.SD*a.SD/float64(len(a.Ratios)) + b.SD*b.SD/float64(len(b.Ratios)))
		if se > 0 && (worst == "" || diff/se > worstZ) {
			worst, worstZ = a.name(), diff/se
		}
		if diff > qualitySigmas*se {
			violations = append(violations, fmt.Sprintf("%s: mean ratio %.5f -> %.5f (%+.3f%%) rose by more than %d standard errors (SE %.5f)",
				a.name(), a.Mean, b.Mean, 100*diff/a.Mean, qualitySigmas, se))
		}
	}
	if compared > 0 {
		notes = append(notes, fmt.Sprintf("%d cells compared: mean change %+.3f%%, %d rose, %d fell or held; largest rise %.2f SE (%s)",
			compared, 100*sumDiff/float64(compared), rose, compared-rose, worstZ, worst))
	}
	return violations, notes
}

// exactQuality requires every code-determined field to match.
func exactQuality(committed, measured *qualityFile) (violations, notes []string) {
	keys := map[string]bool{}
	for k := range committed.fields {
		keys[k] = true
	}
	for k := range measured.fields {
		keys[k] = true
	}
	var names []string
	for k := range keys {
		if !machineFields[k] {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		if !equalJSON(committed.fields[k], measured.fields[k]) {
			violations = append(violations, fmt.Sprintf("field %q differs under the same solver version %s", k, committed.SolverVersion))
		}
	}
	if len(violations) > 0 {
		// Name the cells that moved, which is what a reader needs first.
		got := map[string]qualityCell{}
		for _, c := range measured.Cells {
			got[c.name()] = c
		}
		for _, a := range committed.Cells {
			if b, ok := got[a.name()]; ok && !slices.Equal(a.Ratios, b.Ratios) {
				violations = append(violations, fmt.Sprintf("%s: ratios %v, committed %v", a.name(), b.Ratios, a.Ratios))
			}
		}
		return violations, notes
	}
	return nil, append(notes, fmt.Sprintf("solver version %s: %d cells match the committed record byte for byte",
		committed.SolverVersion, len(committed.Cells)))
}

func equalJSON(a, b json.RawMessage) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}
