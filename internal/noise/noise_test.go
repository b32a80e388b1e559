package noise

import (
	"math"
	"testing"
	"testing/quick"

	"cimsa/internal/device"
	"cimsa/internal/fixed"
)

// CellState reports whether the cell is vulnerable at supply vdd and
// which bit value it prefers: the definition every read follows, and
// the oracle TestSRAMEpochFollowsCellState holds the epoch's scaled
// compare to. The
// cell's fabrication fingerprint is 64 stable hash bits; the low bit is
// its preference and the top 53 a uniform u in [0,1), vulnerable below
// VulnProb. Vulnerability is therefore monotone: a cell vulnerable at
// some V_DD stays vulnerable at every lower V_DD.
func (f *SRAM) CellState(cellID uint64, vdd float64) (vulnerable bool, preferred uint8) {
	h := mix64(cellID ^ f.salt())
	return u53(h) < f.VulnProb(vdd), uint8(h & 1)
}

func TestCellStateDeterministic(t *testing.T) {
	f := NewFabric(1)
	for id := uint64(0); id < 100; id++ {
		v1, p1 := f.CellState(id, 0.4)
		v2, p2 := f.CellState(id, 0.4)
		if v1 != v2 || p1 != p2 {
			t.Fatalf("cell %d state not reproducible", id)
		}
	}
}

func TestDifferentChipsDiffer(t *testing.T) {
	a, b := NewFabric(1), NewFabric(2)
	same := 0
	for id := uint64(0); id < 1000; id++ {
		_, pa := a.CellState(id, 0.3)
		_, pb := b.CellState(id, 0.3)
		if pa == pb {
			same++
		}
	}
	if same > 600 || same < 400 {
		t.Fatalf("chips share %d/1000 preferred bits, want ~500", same)
	}
}

func TestVulnerabilityMonotoneInVDD(t *testing.T) {
	f := NewFabric(3)
	for id := uint64(0); id < 500; id++ {
		prev := true
		for _, vdd := range []float64{0.2, 0.35, 0.5, 0.65, 0.8} {
			v, _ := f.CellState(id, vdd)
			if v && !prev {
				t.Fatalf("cell %d became vulnerable as V_DD rose", id)
			}
			prev = v
		}
	}
}

func TestErrorRateMatchesModel(t *testing.T) {
	f := NewFabric(4)
	for _, vdd := range []float64{0.3, 0.48, 0.52, 0.6} {
		want := f.Model.Rate(vdd)
		errs := 0
		const n = 20000
		for id := uint64(0); id < n; id++ {
			stored := uint8(id & 1)
			if f.ReadBit(id*7+13, stored, vdd) != stored {
				errs++
			}
		}
		got := float64(errs) / n
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("vdd=%v: fabric error rate %v, model says %v", vdd, got, want)
		}
	}
}

func TestSpatialNotTemporal(t *testing.T) {
	// The same cell read twice at the same voltage gives the same result:
	// the raw noise is spatial. (The annealer must convert it.)
	f := NewFabric(5)
	for id := uint64(0); id < 200; id++ {
		a := f.ReadBit(id, 0, 0.35)
		b := f.ReadBit(id, 0, 0.35)
		if a != b {
			t.Fatalf("cell %d read differently twice at same V_DD", id)
		}
	}
}

// TestSRAMEpochFollowsCellState pins the epoch's scaled-integer
// vulnerability compare to CellState's definition, cell by cell, from
// supplies where every cell is vulnerable to ones where almost none is.
func TestSRAMEpochFollowsCellState(t *testing.T) {
	f := NewFabric(0xfab)
	for _, vdd := range []float64{0.1, 0.3, 0.42, 0.5, 0.58, 0.7, device.NominalVDD} {
		ep := f.At(vdd)
		for id := uint64(0); id < 20000; id += 3 {
			vulnerable, preferred := f.CellState(id, vdd)
			for stored := uint8(0); stored < 2; stored++ {
				want := stored
				if vulnerable {
					want = preferred
				}
				if got := ep.ReadBit(id, stored); got != want {
					t.Fatalf("vdd=%v cell %d stored %d: read %d, CellState says %d", vdd, id, stored, got, want)
				}
			}
		}
	}
}

// The ApplyToCode tests pseudo-read whole codes through an epoch's
// ReadCode, the path every noisy solve takes.

func TestApplyToCodeNominalIsClean(t *testing.T) {
	f := NewFabric(6)
	quickCheck := func(code uint8, base uint64) bool {
		return f.At(device.NominalVDD).ReadCode(code, base, 6) == code
	}
	if err := quick.Check(quickCheck, nil); err != nil {
		t.Fatalf("nominal-V_DD pseudo-read corrupted weights: %v", err)
	}
}

func TestApplyToCodeZeroLSBsIsClean(t *testing.T) {
	f := NewFabric(7)
	quickCheck := func(code uint8, base uint64) bool {
		return f.At(0.2).ReadCode(code, base, 0) == code
	}
	if err := quick.Check(quickCheck, nil); err != nil {
		t.Fatalf("0-LSB pseudo-read corrupted weights: %v", err)
	}
}

func TestApplyToCodeOnlyTouchesLSBs(t *testing.T) {
	f := NewFabric(8)
	quickCheck := func(code uint8, base uint64, nRaw uint8) bool {
		n := int(nRaw % 9)
		out := f.At(0.2).ReadCode(code, base, n)
		for b := n; b < fixed.Bits; b++ {
			if fixed.Bit(out, b) != fixed.Bit(code, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(quickCheck, nil); err != nil {
		t.Fatalf("noise leaked into MSBs: %v", err)
	}
}

func TestApplyToCodeMaxErrorMagnitude(t *testing.T) {
	// With n noisy LSBs the corruption is bounded by 2^n - 1.
	f := NewFabric(9)
	for n := 0; n <= fixed.Bits; n++ {
		bound := 1<<uint(n) - 1
		for code := 0; code < 256; code += 7 {
			out := f.At(0.2).ReadCode(uint8(code), uint64(code)*31, n)
			diff := int(out) - code
			if diff < 0 {
				diff = -diff
			}
			if diff > bound {
				t.Fatalf("n=%d code=%d: corruption %d exceeds bound %d", n, code, diff, bound)
			}
		}
	}
}

func TestApplyToCodeLowVDDActuallyNoisy(t *testing.T) {
	f := NewFabric(10)
	changed := 0
	for i := 0; i < 1000; i++ {
		code := uint8(i * 13)
		if f.At(0.2).ReadCode(code, uint64(i)*97, 6) != code {
			changed++
		}
	}
	// 6 noisy bits at ~50% per-bit error rate: nearly every code changes.
	if changed < 800 {
		t.Fatalf("only %d/1000 codes corrupted at 200 mV", changed)
	}
}

func TestCellIDUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for w := 0; w < 4; w++ {
		for r := 0; r < 24; r++ {
			for c := 0; c < 16; c++ {
				for b := 0; b < 8; b++ {
					id := CellID(w, r, c, b)
					if off := CellID(w, 0, 0, b) | uint64(r)<<CellRowShift | uint64(c)<<CellColShift; off != id {
						t.Fatalf("cell (%d,%d,%d,%d): offset base %#x, CellID %#x", w, r, c, b, off, id)
					}
					if seen[id] {
						t.Fatalf("duplicate cell id for (%d,%d,%d,%d)", w, r, c, b)
					}
					seen[id] = true
				}
			}
		}
	}
}

func TestPaperSchedule(t *testing.T) {
	s := PaperSchedule()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.TotalIters() != 400 {
		t.Fatalf("paper schedule runs %d iterations, want 400", s.TotalIters())
	}
	vdd, lsb := s.At(0)
	if vdd != 0.30 || lsb != 6 {
		t.Fatalf("epoch 0: vdd=%v lsb=%d", vdd, lsb)
	}
	vdd, lsb = s.At(399)
	if math.Abs(vdd-0.58) > 1e-9 {
		t.Fatalf("last epoch vdd = %v, want 0.58", vdd)
	}
	if lsb != 0 {
		t.Fatalf("last epoch lsb = %d, want 0", lsb)
	}
	// Iterations beyond the schedule clamp to the final epoch.
	vdd2, lsb2 := s.At(10000)
	if vdd2 != vdd || lsb2 != lsb {
		t.Fatal("beyond-schedule iteration not clamped")
	}
}

func TestScheduleMonotone(t *testing.T) {
	s := PaperSchedule()
	prevV, prevL := 0.0, 100
	for it := 0; it < s.TotalIters(); it += s.EpochIters {
		vdd, lsb := s.At(it)
		if vdd < prevV {
			t.Fatal("vdd not non-decreasing")
		}
		if lsb > prevL {
			t.Fatal("noisy LSBs not non-increasing")
		}
		prevV, prevL = vdd, lsb
	}
}

func TestScheduleEpochBoundaries(t *testing.T) {
	s := PaperSchedule()
	if s.Epoch(0) != 0 || s.Epoch(49) != 0 || s.Epoch(50) != 1 || s.Epoch(399) != 7 {
		t.Fatal("epoch boundaries wrong")
	}
	if s.Epoch(-5) != 0 {
		t.Fatal("negative iteration not clamped")
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := []Schedule{
		{VDDStart: 0.3, VDDStep: 0.04, Epochs: 0, EpochIters: 50, StartLSBs: 6},
		{VDDStart: 0.3, VDDStep: 0.04, Epochs: 8, EpochIters: 0, StartLSBs: 6},
		{VDDStart: 0, VDDStep: 0.04, Epochs: 8, EpochIters: 50, StartLSBs: 6},
		{VDDStart: 0.3, VDDStep: 0.04, Epochs: 8, EpochIters: 50, StartLSBs: 9},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

func TestNoNoiseSchedule(t *testing.T) {
	s := NoNoise(123)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.TotalIters() != 123 {
		t.Fatalf("total iters = %d", s.TotalIters())
	}
	vdd, lsb := s.At(60)
	if lsb != 0 {
		t.Fatalf("NoNoise schedule has %d noisy LSBs", lsb)
	}
	f := NewFabric(11)
	if f.At(vdd).ReadCode(0xA5, 12345, lsb) != 0xA5 {
		t.Fatal("NoNoise schedule corrupted a weight")
	}
}

func BenchmarkReadCode(b *testing.B) {
	f := NewFabric(1)
	for i := 0; i < b.N; i++ {
		f.At(0.35).ReadCode(uint8(i), uint64(i), 6)
	}
}
