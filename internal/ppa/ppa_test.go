package ppa

import (
	"math"
	"testing"
)

func TestArrayAreasMatchTable2(t *testing.T) {
	// Table II: pMax=2 -> 57x55 µm, pMax=3 -> 102x98 µm, pMax=4 -> 161x162 µm.
	tech := Tech16nm()
	cases := []struct {
		pMax         int
		wantH, wantW float64
	}{
		{2, 57, 55},
		{3, 102, 98},
		{4, 161, 162},
	}
	for _, c := range cases {
		arr, err := ArrayModel(c.pMax, tech)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(arr.HeightUM-c.wantH)/c.wantH > 0.05 {
			t.Errorf("pMax=%d height %.1f µm, Table II says %.0f", c.pMax, arr.HeightUM, c.wantH)
		}
		if math.Abs(arr.WidthUM-c.wantW)/c.wantW > 0.05 {
			t.Errorf("pMax=%d width %.1f µm, Table II says %.0f", c.pMax, arr.WidthUM, c.wantW)
		}
	}
}

func TestChipMatchesPaperHeadline(t *testing.T) {
	// Table III, this design: pla85900 at pMax=3 -> 46.4 Mb, 0.39 M
	// spins, 43.7 mm², 433 mW, 0.94 µm²/bit, 9.3 nW/bit.
	rep, err := Chip(85900, 3, PaperProfile(85900, 3), Tech16nm())
	if err != nil {
		t.Fatal(err)
	}
	if mb := float64(rep.PhysicalWeightBits) / 1e6; math.Abs(mb-46.4) > 0.5 {
		t.Errorf("weight memory %.1f Mb, paper says 46.4", mb)
	}
	if spins := float64(rep.PhysicalSpins) / 1e6; math.Abs(spins-0.39) > 0.01 {
		t.Errorf("spins %.2f M, paper says 0.39", spins)
	}
	if math.Abs(rep.AreaMM2-43.7)/43.7 > 0.07 {
		t.Errorf("area %.1f mm², paper says 43.7", rep.AreaMM2)
	}
	if math.Abs(rep.PowerMW-433)/433 > 0.10 {
		t.Errorf("power %.0f mW, paper says 433", rep.PowerMW)
	}
	if math.Abs(rep.AreaPerWeightBitUM2()-0.94)/0.94 > 0.10 {
		t.Errorf("area/bit %.2f µm², paper says 0.94", rep.AreaPerWeightBitUM2())
	}
	if math.Abs(rep.PowerPerWeightBitNW()-9.3)/9.3 > 0.15 {
		t.Errorf("power/bit %.1f nW, paper says 9.3", rep.PowerPerWeightBitNW())
	}
}

func TestNormalizedMetricsOrdersOfMagnitude(t *testing.T) {
	// Table III footnote: normalized metrics around 1e-13 µm² and
	// 1e-12 nW per functional weight bit.
	rep, err := Chip(85900, 3, PaperProfile(85900, 3), Tech16nm())
	if err != nil {
		t.Fatal(err)
	}
	na := rep.NormalizedAreaPerWeightBitUM2()
	np := rep.NormalizedPowerPerWeightBitNW()
	if na < 1e-14 || na > 1e-12 {
		t.Errorf("normalized area/bit %.2e µm², paper says ~1e-13", na)
	}
	if np < 1e-13 || np > 1e-11 {
		t.Errorf("normalized power/bit %.2e nW, paper says ~1e-12", np)
	}
	// Functional counts from the footnotes: 7.4 G spins, 4e20 weight bits.
	if fs := FunctionalSpins(85900); math.Abs(fs-7.38e9)/7.38e9 > 0.01 {
		t.Errorf("functional spins %.3g, want 7.38e9", fs)
	}
	if fw := FunctionalWeightBits(85900); fw < 4.3e20 || fw > 4.4e20 {
		t.Errorf("functional weight bits %.3g, want ~4.36e20", fw)
	}
}

func TestLatencyMatchesPaperRL5934(t *testing.T) {
	// §VI: the annealing step for rl5934 takes ~44 µs.
	rep, err := Chip(5934, 3, PaperProfile(5934, 3), Tech16nm())
	if err != nil {
		t.Fatal(err)
	}
	us := rep.LatencySeconds * 1e6
	if us < 25 || us > 80 {
		t.Errorf("rl5934 latency %.1f µs, paper reports ~44 µs", us)
	}
}

func TestWriteIsSmallFractionOfLatencyAndEnergy(t *testing.T) {
	// Fig. 7(c)/(d): the write portion is much less than read/compute.
	rep, err := Chip(11849, 3, PaperProfile(11849, 3), Tech16nm())
	if err != nil {
		t.Fatal(err)
	}
	if rep.WriteSeconds > 0.35*rep.ComputeSeconds {
		t.Errorf("write latency %.3g not small vs compute %.3g", rep.WriteSeconds, rep.ComputeSeconds)
	}
	if rep.WriteEnergyJ > 0.5*rep.ReadEnergyJ {
		t.Errorf("write energy %.3g not small vs read %.3g", rep.WriteEnergyJ, rep.ReadEnergyJ)
	}
	if rep.LatencySeconds != rep.ComputeSeconds+rep.WriteSeconds {
		t.Error("latency breakdown does not add up")
	}
	if math.Abs(rep.EnergyJ-(rep.ReadEnergyJ+rep.WriteEnergyJ)) > 1e-18 {
		t.Error("energy breakdown does not add up")
	}
}

func TestAreaScalesWithProblemSize(t *testing.T) {
	tech := Tech16nm()
	prev := 0.0
	for _, n := range []int{3038, 5915, 11849, 33810, 85900} {
		rep, err := Chip(n, 3, PaperProfile(n, 3), tech)
		if err != nil {
			t.Fatal(err)
		}
		if rep.AreaMM2 <= prev {
			t.Fatalf("area not increasing at n=%d", n)
		}
		// Fig. 7(b): area is almost proportional to capacity, i.e. ~N.
		ratio := rep.AreaMM2 / float64(n)
		if n > 3000 && (ratio < 0.0003 || ratio > 0.0008) {
			t.Fatalf("area/N ratio %.2g outside linear band at n=%d", ratio, n)
		}
		prev = rep.AreaMM2
	}
}

func TestPMax2CheapestButSlowest(t *testing.T) {
	// Fig. 7: pMax=2 needs the least area but the most hierarchy levels
	// (longest latency); pMax=4 is the biggest.
	tech := Tech16nm()
	reps := map[int]ChipReport{}
	for _, p := range []int{2, 3, 4} {
		rep, err := Chip(15112, p, PaperProfile(15112, p), tech)
		if err != nil {
			t.Fatal(err)
		}
		reps[p] = rep
	}
	if !(reps[2].AreaMM2 < reps[3].AreaMM2 && reps[3].AreaMM2 < reps[4].AreaMM2) {
		t.Errorf("area ordering wrong: %v %v %v", reps[2].AreaMM2, reps[3].AreaMM2, reps[4].AreaMM2)
	}
	if !(reps[2].LatencySeconds > reps[3].LatencySeconds) {
		t.Errorf("pMax=2 latency %v not worse than pMax=3 %v",
			reps[2].LatencySeconds, reps[3].LatencySeconds)
	}
}

func TestMemoryCapacityFig1(t *testing.T) {
	// Fig. 1: O(N⁴) vs O(N²) vs O(N); at tens of thousands of cities the
	// compact design fits in MB-level SRAM.
	pbm, clus, compact := MemoryCapacityBits(85900, 3)
	if !(pbm > clus && clus > compact) {
		t.Fatalf("capacity ordering violated: %g %g %g", pbm, clus, compact)
	}
	if mb := compact / 1e6; mb < 30 || mb > 60 {
		t.Fatalf("compact capacity %.1f Mb, want ~46 Mb", mb)
	}
	// Scaling exponents: quadrupling N should scale PBM ~256x, clustered
	// ~16x, compact ~4x.
	p1, c1, k1 := MemoryCapacityBits(1000, 3)
	p2, c2, k2 := MemoryCapacityBits(4000, 3)
	if r := p2 / p1; r < 200 || r > 300 {
		t.Errorf("PBM scaling %v, want ~256", r)
	}
	if r := c2 / c1; r < 12 || r > 20 {
		t.Errorf("clustered scaling %v, want ~16", r)
	}
	if r := k2 / k1; r < 3 || r > 5 {
		t.Errorf("compact scaling %v, want ~4", r)
	}
}

func TestPaperProfileLevels(t *testing.T) {
	// pMax=2 shrinks by 1.5x per level, pMax=4 by 2.5x: level counts
	// must reflect that.
	p2 := PaperProfile(10000, 2)
	p4 := PaperProfile(10000, 4)
	if p2.Levels <= p4.Levels {
		t.Fatalf("pMax=2 levels %d not more than pMax=4 levels %d", p2.Levels, p4.Levels)
	}
	if p2.IterationsPerLevel != 400 || p2.EpochIters != 50 {
		t.Fatal("paper profile constants wrong")
	}
	if tiny := PaperProfile(5, 3); tiny.Levels != 1 {
		t.Fatalf("tiny profile levels = %d", tiny.Levels)
	}
}

func TestChipErrors(t *testing.T) {
	tech := Tech16nm()
	if _, err := Chip(2, 3, PaperProfile(100, 3), tech); err == nil {
		t.Error("n=2 accepted")
	}
	if _, err := Chip(1000, 1, PaperProfile(1000, 3), tech); err == nil {
		t.Error("pMax=1 accepted")
	}
	if _, err := Chip(1000, 3, RunProfile{}, tech); err == nil {
		t.Error("empty profile accepted")
	}
}

func BenchmarkChipReport(b *testing.B) {
	tech := Tech16nm()
	for i := 0; i < b.N; i++ {
		if _, err := Chip(85900, 3, PaperProfile(85900, 3), tech); err != nil {
			b.Fatal(err)
		}
	}
}
