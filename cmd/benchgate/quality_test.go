package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// qrecord writes a quality record with one cell per (dataset, ratios)
// pair and loads it back the way main does.
func qrecord(t *testing.T, version string, wall float64, cells map[string][]float64) *qualityFile {
	t.Helper()
	type cell struct {
		Dataset string    `json:"dataset"`
		PMax    int       `json:"pmax"`
		Fabric  string    `json:"fabric"`
		Ratios  []float64 `json:"ratios"`
		Mean    float64   `json:"mean"`
		SD      float64   `json:"sd"`
	}
	rec := map[string]any{"solver_version": version, "scale": 0.25, "seeds": []int{1, 2, 3, 4}, "wall_seconds": wall}
	var cs []cell
	for _, name := range []string{"a", "b"} {
		rs, ok := cells[name]
		if !ok {
			continue
		}
		var mean, ss float64
		for _, r := range rs {
			mean += r
		}
		mean /= float64(len(rs))
		for _, r := range rs {
			ss += (r - mean) * (r - mean)
		}
		cs = append(cs, cell{Dataset: name, PMax: 3, Fabric: "sram", Ratios: rs, Mean: mean, SD: math.Sqrt(ss / float64(len(rs)-1))})
	}
	rec["cells"] = cs
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "q.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := loadQuality(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

var qbase = map[string][]float64{"a": {1.10, 1.12, 1.14, 1.16}, "b": {1.20, 1.21, 1.22, 1.23}}

func TestQualityGateSameVersionIsExact(t *testing.T) {
	committed := qrecord(t, "tsp/v1", 20, qbase)
	if v, _ := gateQuality(committed, qrecord(t, "tsp/v1", 31.5, qbase)); len(v) != 0 {
		t.Fatalf("a record differing only in wall time failed: %v", v)
	}
	// A better ratio is still a change the version did not declare.
	moved := map[string][]float64{"a": {1.10, 1.12, 1.14, 1.15}, "b": qbase["b"]}
	v, _ := gateQuality(committed, qrecord(t, "tsp/v1", 20, moved))
	if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), "a p=3 sram: ratios") {
		t.Fatalf("an undeclared result change passed or did not name its cell: %v", v)
	}
}

func TestQualityGateVersionChangeAllowsNoise(t *testing.T) {
	committed := qrecord(t, "tsp/v1", 20, qbase)
	// Cell a rises by 0.005, well inside 4 SE (SE about 0.018); b falls.
	measured := map[string][]float64{"a": {1.11, 1.12, 1.15, 1.16}, "b": {1.19, 1.20, 1.21, 1.22}}
	v, notes := gateQuality(committed, qrecord(t, "tsp/v2", 20, measured))
	if len(v) != 0 {
		t.Fatalf("a within-noise change failed: %v", v)
	}
	if !strings.Contains(strings.Join(notes, "\n"), "2 cells compared") {
		t.Fatalf("no summary note: %v", notes)
	}
}

func TestQualityGateVersionChangeCatchesRegression(t *testing.T) {
	committed := qrecord(t, "tsp/v1", 20, qbase)
	// b rises by 0.05 against an SE of about 0.009.
	measured := map[string][]float64{"a": qbase["a"], "b": {1.25, 1.26, 1.27, 1.28}}
	v, _ := gateQuality(committed, qrecord(t, "tsp/v2", 20, measured))
	if len(v) != 1 || !strings.Contains(v[0], "b p=3 sram") {
		t.Fatalf("want one violation naming cell b, got %v", v)
	}
	// A cell the new version no longer measures fails too.
	v, _ = gateQuality(committed, qrecord(t, "tsp/v2", 20, map[string][]float64{"a": qbase["a"]}))
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("want one missing-cell violation, got %v", v)
	}
}
