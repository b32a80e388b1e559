package cim

// An analog compute-in-memory crossbar, kept as a test-only
// counter-model to substantiate the paper's key architectural argument
// (§III.B): analog CIM integrates current along the *entire* bit line,
// so it cannot sum just a section of a column. When the compact weight
// mapping relocates several clusters' windows into the same physical
// columns, an analog readout mixes their partial sums together and the
// computed spin energies are corrupted; a digital adder tree can gate
// the summation window and stays exact. The tests below demonstrate
// both halves of that claim quantitatively.
//
// The crossbar model includes the analog non-idealities that matter for
// the comparison: full-column current summation, finite ADC resolution,
// and input-referred noise. Conductances are programmed from the same
// 8-bit codes the digital arrays store.

import (
	"fmt"
	"math"
	"testing"

	"cimsa/internal/rng"
)

// crossbar is an analog CIM array: Rows x Cols conductances, row DACs
// that apply the input vector as word-line voltages, and one ADC per
// column that digitizes the integrated bit-line current.
type crossbar struct {
	Rows, Cols int
	// g holds normalized conductances in [0, 1], row-major.
	g []float64
	// ADCBits is the column ADC resolution.
	ADCBits int
	// NoiseRMS is the input-referred readout noise as a fraction of the
	// full-scale column current.
	NoiseRMS float64
	// rnd drives the readout noise.
	rnd *rng.Rand
}

// newCrossbar builds a crossbar with all conductances at zero.
func newCrossbar(rows, cols, adcBits int, noiseRMS float64, seed uint64) (*crossbar, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("crossbar: bad shape %dx%d", rows, cols)
	}
	if adcBits < 1 || adcBits > 16 {
		return nil, fmt.Errorf("crossbar: ADC bits %d out of range", adcBits)
	}
	if noiseRMS < 0 {
		return nil, fmt.Errorf("crossbar: negative noise")
	}
	return &crossbar{
		Rows:     rows,
		Cols:     cols,
		g:        make([]float64, rows*cols),
		ADCBits:  adcBits,
		NoiseRMS: noiseRMS,
		rnd:      rng.New(seed),
	}, nil
}

// Program writes an 8-bit weight code as a normalized conductance.
func (c *crossbar) Program(row, col int, code uint8) {
	c.g[row*c.Cols+col] = float64(code) / 255
}

// ReadColumn applies the 0/1 input vector to the word lines and returns
// the digitized column sum in code units (0..255 scale). The summation
// is physically over the whole column: there is no way to exclude rows
// other than driving their inputs to zero — which is exactly what the
// compact mapping cannot do, because different windows sharing the
// column need *different* row subsets active in the same cycle.
func (c *crossbar) ReadColumn(inputs []uint8, col int) (float64, error) {
	if len(inputs) != c.Rows {
		return 0, fmt.Errorf("crossbar: %d inputs for %d rows", len(inputs), c.Rows)
	}
	if col < 0 || col >= c.Cols {
		return 0, fmt.Errorf("crossbar: column %d out of range", col)
	}
	var current float64
	for r, in := range inputs {
		if in != 0 {
			current += c.g[r*c.Cols+col]
		}
	}
	// Full-scale: all rows at max conductance.
	fullScale := float64(c.Rows)
	current += c.rnd.NormFloat64() * c.NoiseRMS * fullScale
	if current < 0 {
		current = 0
	}
	if current > fullScale {
		current = fullScale
	}
	// ADC quantization over the full-scale range, reported in weight-code
	// units (x255 to compare against digital integer sums).
	levels := float64(int(1)<<uint(c.ADCBits)) - 1
	codeNorm := math.Round(current/fullScale*levels) / levels
	return codeNorm * fullScale * 255, nil
}

// IdealColumnSum is the noiseless, un-quantized dot product restricted
// to the given active rows — what a digital adder tree computes exactly.
func (c *crossbar) IdealColumnSum(activeRows []int, col int) float64 {
	var sum float64
	for _, r := range activeRows {
		sum += c.g[r*c.Cols+col] * 255
	}
	return sum
}

func TestReadColumnMatchesDotProductWhenClean(t *testing.T) {
	// With a noiseless, high-resolution ADC, the analog read equals the
	// dot product when the active rows are controlled by inputs.
	cb, err := newCrossbar(16, 4, 12, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	inputs := make([]uint8, 16)
	want := 0.0
	for row := 0; row < 16; row++ {
		code := uint8(r.Intn(256))
		cb.Program(row, 1, code)
		if r.Bool() {
			inputs[row] = 1
			want += float64(code)
		}
	}
	got, err := cb.ReadColumn(inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 12-bit ADC over 16 rows: quantization step = 16*255/4095 ≈ 1 code.
	if math.Abs(got-want) > 2 {
		t.Fatalf("analog read %v, dot product %v", got, want)
	}
}

func TestADCQuantizationError(t *testing.T) {
	// A coarse ADC introduces bounded but visible error.
	cb, err := newCrossbar(32, 1, 4, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]uint8, 32)
	want := 0.0
	r := rng.New(4)
	for row := 0; row < 32; row++ {
		code := uint8(r.Intn(256))
		cb.Program(row, 0, code)
		inputs[row] = 1
		want += float64(code)
	}
	got, err := cb.ReadColumn(inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 4-bit ADC: step = 32*255/15 = 544 code units.
	if math.Abs(got-want) > 544 {
		t.Fatalf("quantization error %v exceeds one ADC step", math.Abs(got-want))
	}
	if got == want {
		t.Log("exact match under coarse ADC (possible but unusual)")
	}
}

// TestCompactMappingCorruptsAnalogReadout is the paper's §III.B argument
// as an executable fact: two clusters' windows share physical columns
// under the compact mapping; the MAC for cluster A must sum only A's
// window rows, but A and B both have active spin rows in the same cycle,
// and the analog bit line adds B's contribution into A's energy.
func TestCompactMappingCorruptsAnalogReadout(t *testing.T) {
	// Layout: rows 0-7 hold window A, rows 8-15 hold window B (stacked
	// compact mapping in the same column).
	cb, err := newCrossbar(16, 1, 12, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < 8; row++ {
		cb.Program(row, 0, 100) // window A weights
	}
	for row := 8; row < 16; row++ {
		cb.Program(row, 0, 200) // window B weights
	}
	// Spin state: both clusters have active rows (they update in the
	// same phase, as the compact mapping requires).
	inputs := make([]uint8, 16)
	inputs[2] = 1  // cluster A's active spin
	inputs[11] = 1 // cluster B's active spin
	got, err := cb.ReadColumn(inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantA := cb.IdealColumnSum([]int{2}, 0) // the energy cluster A needs
	if math.Abs(got-wantA) < 50 {
		t.Fatalf("analog read %v should NOT match window A's sum %v", got, wantA)
	}
	// The corruption is exactly window B's contribution.
	wantBoth := cb.IdealColumnSum([]int{2, 11}, 0)
	if math.Abs(got-wantBoth) > 2 {
		t.Fatalf("analog read %v, full-column sum %v", got, wantBoth)
	}
	// The digital adder tree, gating the summation to window A's rows,
	// is exact — the flexibility the paper's design exploits.
	if wantA != 100 {
		t.Fatalf("digital sectioned sum %v, want 100", wantA)
	}
}

func TestNoiseAffectsReadout(t *testing.T) {
	cb, err := newCrossbar(8, 1, 12, 0.02, 6)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]uint8, 8)
	inputs[0] = 1
	cb.Program(0, 0, 128)
	// Repeated reads fluctuate (analog noise is temporal).
	first, err := cb.ReadColumn(inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for i := 0; i < 20; i++ {
		v, err := cb.ReadColumn(inputs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v != first {
			differs = true
		}
	}
	if !differs {
		t.Fatal("noisy readout never fluctuated")
	}
}

func TestValidation(t *testing.T) {
	if _, err := newCrossbar(0, 1, 8, 0, 1); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := newCrossbar(1, 1, 0, 0, 1); err == nil {
		t.Error("zero ADC bits accepted")
	}
	if _, err := newCrossbar(1, 1, 8, -1, 1); err == nil {
		t.Error("negative noise accepted")
	}
	cb, err := newCrossbar(4, 2, 8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cb.ReadColumn([]uint8{1, 0}, 0); err == nil {
		t.Error("short input vector accepted")
	}
	if _, err := cb.ReadColumn(make([]uint8, 4), 9); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestReadColumnSaturates(t *testing.T) {
	cb, err := newCrossbar(4, 1, 8, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []uint8{1, 1, 1, 1}
	for row := 0; row < 4; row++ {
		cb.Program(row, 0, 255)
	}
	got, err := cb.ReadColumn(inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got > 4*255+1 {
		t.Fatalf("readout %v above full scale", got)
	}
}
