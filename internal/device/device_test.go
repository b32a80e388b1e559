package device

import (
	"math"
	"strings"
	"testing"

	"cimsa/internal/rng"
)

func TestTransistorCutoffAndSaturation(t *testing.T) {
	tr := Transistor{Vth: 0.3, K: 4e-4, N: 1.3}
	// Deep cutoff: orders of magnitude below strong inversion.
	offI := tr.Ids(0.0, 0.4)
	onI := tr.Ids(0.8, 0.4)
	if offI <= 0 {
		t.Fatal("subthreshold current should be positive (leakage)")
	}
	if onI < 1e4*offI {
		t.Fatalf("on/off ratio too small: on=%v off=%v", onI, offI)
	}
	if tr.Ids(0.8, 0) != 0 {
		t.Fatal("zero Vds must give zero current")
	}
}

func TestTransistorMonotonicity(t *testing.T) {
	tr := Transistor{Vth: 0.3, K: 4e-4, N: 1.3}
	prev := 0.0
	for vgs := 0.0; vgs <= 0.8; vgs += 0.05 {
		cur := tr.Ids(vgs, 0.4)
		if cur < prev {
			t.Fatalf("Ids not monotone in Vgs at %v", vgs)
		}
		prev = cur
	}
	prev = 0.0
	for vds := 0.0; vds <= 0.8; vds += 0.05 {
		cur := tr.Ids(0.6, vds)
		if cur < prev-1e-15 {
			t.Fatalf("Ids not monotone in Vds at %v", vds)
		}
		prev = cur
	}
}

func TestTransistorSquareLawLimit(t *testing.T) {
	// Deep strong inversion in saturation: I should approach
	// K/(2n) * (Vgs-Vth)^2 within a modest factor.
	tr := Transistor{Vth: 0.3, K: 4e-4, N: 1.0}
	vgs, vds := 1.5, 1.5
	got := tr.Ids(vgs, vds)
	want := tr.K / 2 * (vgs - tr.Vth) * (vgs - tr.Vth)
	if got < 0.8*want || got > 1.3*want {
		t.Fatalf("strong-inversion current %v, square law predicts %v", got, want)
	}
}

func testInverter() Inverter {
	p := Params16nm()
	return Inverter{
		NMOS: Transistor{Vth: p.VthN, K: p.KN, N: p.SlopeN},
		PMOS: Transistor{Vth: p.VthP, K: p.KP, N: p.SlopeN},
	}
}

func TestInverterVTCShape(t *testing.T) {
	inv := testInverter()
	vdd := 0.8
	if out := inv.Vout(0, vdd); out < 0.95*vdd {
		t.Fatalf("Vout(0) = %v, want near %v", out, vdd)
	}
	if out := inv.Vout(vdd, vdd); out > 0.05*vdd {
		t.Fatalf("Vout(vdd) = %v, want near 0", out)
	}
	// Monotone decreasing.
	prev := math.Inf(1)
	for vin := 0.0; vin <= vdd; vin += 0.02 {
		out := inv.Vout(vin, vdd)
		if out > prev+1e-9 {
			t.Fatalf("VTC not monotone at vin=%v", vin)
		}
		prev = out
	}
}

func TestInverterWorksNearThreshold(t *testing.T) {
	// Subthreshold operation: even at 200 mV the inverter must still
	// invert rail-to-railish.
	inv := testInverter()
	vdd := 0.2
	hi := inv.Vout(0, vdd)
	lo := inv.Vout(vdd, vdd)
	if hi < 0.8*vdd || lo > 0.2*vdd {
		t.Fatalf("near-threshold VTC degenerate: hi=%v lo=%v at vdd=%v", hi, lo, vdd)
	}
}

func TestVTCSamplingAndLift(t *testing.T) {
	inv := testInverter()
	vins, vouts := inv.VTC(0.8, 0.1, 33)
	if len(vins) != 33 || len(vouts) != 33 {
		t.Fatal("wrong sample count")
	}
	for i, v := range vouts {
		if v < 0.1-1e-12 {
			t.Fatalf("lift clamp violated at sample %d: %v", i, v)
		}
	}
	if vins[0] != 0 || math.Abs(vins[32]-0.8) > 1e-12 {
		t.Fatal("input grid endpoints wrong")
	}
}

func TestReadLiftGrowsAsSupplyFalls(t *testing.T) {
	p := Params16nm()
	pd := Transistor{Vth: p.VthN, K: p.KN, N: p.SlopeN}
	prev := 0.0
	for _, vdd := range []float64{0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2} {
		lift := readLift(vdd, pd, p)
		if lift < prev-1e-9 {
			t.Fatalf("read lift shrank as supply fell: %v at vdd=%v (prev %v)", lift, vdd, prev)
		}
		prev = lift
	}
	// At nominal supply the lift must be a small fraction of VDD.
	if lift := readLift(0.8, pd, p); lift > 0.25*0.8 {
		t.Fatalf("nominal read lift too large: %v", lift)
	}
	// Deep collapse: lift comparable to or above the latch supply.
	if lift := readLift(0.2, pd, p); lift < 0.2 {
		t.Fatalf("collapsed read lift too small: %v", lift)
	}
}

func TestNominalCellSymmetricSNM(t *testing.T) {
	p := Params16nm()
	var nominal Cell
	s0, s1 := nominal.ReadSNM(0.8, p)
	if math.Abs(s0-s1) > 1e-6 {
		t.Fatalf("nominal cell asymmetric: %v vs %v", s0, s1)
	}
	if s0 < 0.1 || s0 > 0.45 {
		t.Fatalf("nominal read SNM at 0.8 V = %v, expected 100-450 mV", s0)
	}
}

func TestSNMDropsWithSupply(t *testing.T) {
	p := Params16nm()
	var nominal Cell
	hi, _ := nominal.ReadSNM(0.8, p)
	mid, _ := nominal.ReadSNM(0.6, p)
	lo, _ := nominal.ReadSNM(0.35, p)
	if !(hi > mid && mid > lo) {
		t.Fatalf("SNM not decreasing with supply: %v, %v, %v", hi, mid, lo)
	}
	if lo > 0 {
		t.Fatalf("deeply scaled supply should destroy the state, got SNM %v", lo)
	}
}

func TestMismatchBreaksSymmetry(t *testing.T) {
	p := Params16nm()
	cell := Cell{dN1: 0.06, dP1: -0.02, dN2: -0.05, dP2: 0.03}
	s0, s1 := cell.ReadSNM(0.7, p)
	if math.Abs(s0-s1) < 1e-4 {
		t.Fatalf("strong mismatch left SNM symmetric: %v vs %v", s0, s1)
	}
}

func TestPreferredBitStableAcrossVoltages(t *testing.T) {
	// The preferred flip direction is fabricated-in; for a strongly
	// mismatched cell it should not depend on the supply choice.
	p := Params16nm()
	// The preferred state is the one with the larger read margin.
	cell := Cell{dN1: 0.08, dN2: -0.08}
	preferred := func(vdd float64) bool {
		snm0, snm1 := cell.ReadSNM(vdd, p)
		return snm1 > snm0
	}
	first := preferred(0.45)
	for _, vdd := range []float64{0.4, 0.5, 0.55} {
		if got := preferred(vdd); got != first {
			t.Fatalf("preferred state changed at vdd=%v", vdd)
		}
	}
}

func TestFlipProbabilityBounds(t *testing.T) {
	p := Params16nm()
	r := rng.New(3)
	for i := 0; i < 20; i++ {
		cell := SampleCell(r, p)
		for _, vdd := range []float64{0.3, 0.5, 0.7} {
			for _, stored := range []uint8{0, 1} {
				pr := cell.FlipProbability(stored, vdd, p)
				if pr < 0 || pr > 1 {
					t.Fatalf("flip probability %v out of range", pr)
				}
			}
		}
	}
}

func TestFlipProbabilityNearZeroAtNominal(t *testing.T) {
	p := Params16nm()
	r := rng.New(5)
	var sum float64
	for i := 0; i < 50; i++ {
		cell := SampleCell(r, p)
		sum += cell.FlipProbability(0, NominalVDD, p)
		sum += cell.FlipProbability(1, NominalVDD, p)
	}
	if rate := sum / 100; rate > 0.001 {
		t.Fatalf("nominal-supply flip rate %v, want ~0", rate)
	}
}

func TestErrorRateCurveShape(t *testing.T) {
	// The headline device result (Fig. 6b): ~50% at 200 mV, ~0 at
	// nominal, monotone non-increasing sigmoid in between.
	p := Params16nm()
	vdds := []float64{0.2, 0.3, 0.42, 0.48, 0.52, 0.58, 0.7, 0.8}
	rates := ErrorRateCurve(p, vdds, 150, 7)
	if rates[0] < 0.45 || rates[0] > 0.55 {
		t.Fatalf("error rate at 200 mV = %v, want ~0.5", rates[0])
	}
	last := rates[len(rates)-1]
	if last > 0.005 {
		t.Fatalf("error rate at 800 mV = %v, want ~0", last)
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] > rates[i-1]+0.03 {
			t.Fatalf("error rate not monotone: %v -> %v at vdd %v", rates[i-1], rates[i], vdds[i])
		}
	}
	// The transition region must actually be intermediate.
	foundMid := false
	for _, r := range rates {
		if r > 0.05 && r < 0.45 {
			foundMid = true
		}
	}
	if !foundMid {
		t.Fatal("no intermediate error rates: transition is a step, not a sigmoid")
	}
}

func TestHigherBLCapSharpensTransition(t *testing.T) {
	lo := Params16nm()
	hi := Params16nm()
	hi.CBLRel = 8
	// Compare rates in the transition region: the high-C_BL curve should
	// be at or below the low-C_BL curve there (sharper fall).
	vdds := []float64{0.49, 0.52}
	rLo := ErrorRateCurve(lo, vdds, 150, 11)
	rHi := ErrorRateCurve(hi, vdds, 150, 11)
	for i := range vdds {
		if rHi[i] > rLo[i]+0.02 {
			t.Fatalf("high C_BL rate %v above low C_BL rate %v at %v V",
				rHi[i], rLo[i], vdds[i])
		}
	}
	if rHi[0]+rHi[1] >= rLo[0]+rLo[1] {
		t.Fatalf("high C_BL transition not sharper: hi=%v lo=%v", rHi, rLo)
	}
}

func TestErrorRateDeterministic(t *testing.T) {
	p := Params16nm()
	a := ErrorRatePoint(p, 0.5, 60, 13)
	b := ErrorRatePoint(p, 0.5, 60, 13)
	if a != b {
		t.Fatalf("Monte Carlo not deterministic: %v vs %v", a, b)
	}
}

func TestSweepVDD(t *testing.T) {
	vdds := SweepVDD(0.04)
	if vdds[0] != 0.2 {
		t.Fatalf("sweep starts at %v", vdds[0])
	}
	if last := vdds[len(vdds)-1]; math.Abs(last-0.8) > 1e-9 {
		t.Fatalf("sweep ends at %v", last)
	}
	for i := 1; i < len(vdds); i++ {
		if vdds[i] <= vdds[i-1] {
			t.Fatal("sweep not ascending")
		}
	}
	if def := SweepVDD(0); len(def) != 13 {
		t.Fatalf("default sweep has %d points", len(def))
	}
}

func TestFitSigmoid(t *testing.T) {
	truth := ErrorModel{MaxRate: 0.5, V50: 0.45, Slope: 0.03}
	vdds := SweepVDD(0.025)
	rates := make([]float64, len(vdds))
	for i, v := range vdds {
		rates[i] = truth.Rate(v)
	}
	fit, err := FitSigmoid(vdds, rates)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.V50-truth.V50) > 0.01 {
		t.Fatalf("fitted V50 %v, want %v", fit.V50, truth.V50)
	}
	if math.Abs(fit.Slope-truth.Slope) > 0.01 {
		t.Fatalf("fitted slope %v, want %v", fit.Slope, truth.Slope)
	}
	if math.Abs(fit.MaxRate-truth.MaxRate) > 0.02 {
		t.Fatalf("fitted max %v, want %v", fit.MaxRate, truth.MaxRate)
	}
}

func TestFitSigmoidErrors(t *testing.T) {
	if _, err := FitSigmoid([]float64{0.2, 0.3}, []float64{0.5, 0.4}); err == nil {
		t.Fatal("too-few samples accepted")
	}
	if _, err := FitSigmoid([]float64{0.2, 0.3, 0.3, 0.4}, []float64{0.5, 0.4, 0.3, 0.2}); err == nil {
		t.Fatal("non-ascending vdds accepted")
	}
	if _, err := FitSigmoid([]float64{0.2, 0.3, 0.4, 0.5}, []float64{0, 0, 0, 0}); err == nil {
		t.Fatal("all-zero curve accepted")
	}
}

func TestErrorModelRate(t *testing.T) {
	m := ErrorModel{MaxRate: 0.5, V50: 0.4, Slope: 0.05}
	if got := m.Rate(0.4); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("rate at V50 = %v, want half of max", got)
	}
	if m.Rate(0.1) < 0.49 {
		t.Fatalf("low-V rate %v, want near max", m.Rate(0.1))
	}
	if m.Rate(0.8) > 0.01 {
		t.Fatalf("high-V rate %v, want near 0", m.Rate(0.8))
	}
	// Degenerate slope: step function.
	step := ErrorModel{MaxRate: 0.5, V50: 0.4, Slope: 0}
	if step.Rate(0.3) != 0.5 || step.Rate(0.5) != 0 {
		t.Fatal("degenerate slope mishandled")
	}
}

// ErrorRatePoint is the Monte Carlo of ErrorRateCurve at one supply,
// written out cell by cell: the oracle the committed error model is
// checked against.
func ErrorRatePoint(p CellParams, vdd float64, nSamples int, seed uint64) float64 {
	r := rng.New(seed)
	flips := 0.0
	for i := 0; i < nSamples; i++ {
		cell := SampleCell(r, p)
		// Average both stored polarities: equivalent to random data with
		// zero sampling variance from the data itself.
		flips += 0.5 * (cell.FlipProbability(0, vdd, p) + cell.FlipProbability(1, vdd, p))
	}
	return flips / float64(nSamples)
}

func TestDefaultErrorModelMatchesMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("device Monte Carlo")
	}
	m := DefaultErrorModel()
	p := Params16nm()
	for _, v := range []float64{0.3, 0.46, 0.52, 0.6, 0.7} {
		mc := ErrorRatePoint(p, v, 200, 17)
		if math.Abs(m.Rate(v)-mc) > 0.08 {
			t.Fatalf("committed model %v vs Monte Carlo %v at %v V", m.Rate(v), mc, v)
		}
	}
}

func BenchmarkReadSNM(b *testing.B) {
	p := Params16nm()
	cell := SampleCell(rng.New(1), p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell.ReadSNM(0.5, p)
	}
}

func BenchmarkErrorRatePoint100(b *testing.B) {
	p := Params16nm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ErrorRatePoint(p, 0.5, 100, uint64(i))
	}
}

// TestFitSigmoidDegenerateCurves pins the missing-crossing fix: curves
// with no transition in the sampled range used to clamp every crossing
// to the last sampled vdd, collapse v75-v25 to <= 0, and silently
// substitute slope 0.01 — a fabricated fit the annealer would then
// anneal against. Each degenerate shape must instead be refused with an
// error naming what is missing.
func TestFitSigmoidDegenerateCurves(t *testing.T) {
	vdds := []float64{0.30, 0.34, 0.38, 0.42, 0.46, 0.50}
	cases := []struct {
		name    string
		rates   []float64
		wantErr string
	}{
		{
			name:    "flat plateau never leaves",
			rates:   []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
			wantErr: "never falls through 50%",
		},
		{
			name:    "identically zero",
			rates:   []float64{0, 0, 0, 0, 0, 0},
			wantErr: "identically zero",
		},
		{
			name: "zero head hides the hump from the plateau estimate",
			// The plateau is taken from the two lowest-voltage samples;
			// a curve that rises later has no usable plateau at all.
			rates:   []float64{0, 0, 0.5, 0.3, 0.1, 0},
			wantErr: "identically zero",
		},
		{
			name:    "non-monotone tail never falls through 25%",
			rates:   []float64{0.5, 0.45, 0.2, 0.35, 0.3, 0.2},
			wantErr: "never falls through 25%",
		},
		{
			name:    "partial fall stalls above 25%",
			rates:   []float64{0.5, 0.5, 0.4, 0.3, 0.2, 0.2},
			wantErr: "never falls through 25%",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FitSigmoid(vdds, tc.rates)
			if err == nil {
				t.Fatalf("degenerate curve %v produced a fit instead of an error", tc.rates)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the failure (want substring %q)", err, tc.wantErr)
			}
		})
	}
	// A noisy-but-real sigmoid must still fit: the fix rejects missing
	// transitions, not measurement wiggle on an otherwise falling curve.
	ok := []float64{0.5, 0.48, 0.35, 0.15, 0.04, 0.01}
	if _, err := FitSigmoid(vdds, ok); err != nil {
		t.Fatalf("real transition rejected: %v", err)
	}
}
