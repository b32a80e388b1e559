package device

import (
	"math"

	"cimsa/internal/rng"
)

// CellParams describes the nominal 6T SRAM cell and its variability.
// Defaults follow Params16nm.
type CellParams struct {
	// VthN, VthP are nominal threshold voltages (V).
	VthN, VthP float64
	// KN, KP are transconductance factors (A/V²).
	KN, KP float64
	// SlopeN is the subthreshold slope factor shared by all devices.
	SlopeN float64
	// SigmaVth is the per-device threshold mismatch sigma (V), the
	// Pelgrom AVt/sqrt(WL) term.
	SigmaVth float64
	// KAccess is the access transistor transconductance factor (A/V²).
	// SRAM cells size it weaker than the pull-down for read stability.
	KAccess float64
	// VWordLine and VBitLine are the word-line drive and bit-line
	// precharge voltages during a pseudo-read. The paper's key trick is
	// that these stay at nominal V_DD while the latch supply is lowered,
	// so the access transistor progressively overpowers the starved
	// pull-down and the stored-0 node lifts until the cell flips.
	VWordLine, VBitLine float64
	// DisturbSigma is the RMS disturbance voltage on the internal nodes
	// during a pseudo-read (V) at relative bit-line capacitance 1. The
	// effective sigma scales as DisturbSigma / sqrt(CBLRel): a longer
	// (higher-capacitance) bit line filters more noise, which is why the
	// paper observes a sharper error-rate transition for higher C_BL.
	DisturbSigma float64
	// CBLRel is the bit-line capacitance relative to the nominal array
	// height.
	CBLRel float64
	// VTCPoints is the VTC sampling resolution.
	VTCPoints int
}

// Params16nm returns cell parameters representative of a 16 nm FinFET
// high-density 6T cell (nominal V_DD 800 mV). SigmaVth of ~28 mV per
// device matches published FinFET SRAM mismatch data.
func Params16nm() CellParams {
	return CellParams{
		VthN:         0.30,
		VthP:         0.30,
		KN:           4e-4,
		KP:           3.2e-4,
		SlopeN:       1.3,
		SigmaVth:     0.050,
		KAccess:      1.6e-4,
		VWordLine:    NominalVDD,
		VBitLine:     NominalVDD,
		DisturbSigma: 0.024,
		CBLRel:       1.0,
		VTCPoints:    48,
	}
}

// NominalVDD is the nominal 16 nm supply voltage the paper quotes.
const NominalVDD = 0.8

// effDisturbSigma returns the disturbance sigma after bit-line filtering.
func (p CellParams) effDisturbSigma() float64 {
	c := p.CBLRel
	if c <= 0 {
		c = 1
	}
	return p.DisturbSigma / math.Sqrt(c)
}

// Cell is one fabricated SRAM bit with frozen threshold mismatch on the
// four latch transistors. The mismatch is spatial: it never changes after
// SampleCell, which is exactly the property the paper exploits (and must
// convert to temporal noise by addressing different cells over time).
type Cell struct {
	dN1, dP1, dN2, dP2 float64
}

// SampleCell draws a cell's mismatch from the process distribution.
func SampleCell(r *rng.Rand, p CellParams) Cell {
	return Cell{
		dN1: r.NormFloat64() * p.SigmaVth,
		dP1: r.NormFloat64() * p.SigmaVth,
		dN2: r.NormFloat64() * p.SigmaVth,
		dP2: r.NormFloat64() * p.SigmaVth,
	}
}

// inverters materializes the two cross-coupled inverters with this
// cell's mismatch applied.
func (c Cell) inverters(p CellParams) (inv1, inv2 Inverter) {
	inv1 = Inverter{
		NMOS: Transistor{Vth: p.VthN + c.dN1, K: p.KN, N: p.SlopeN},
		PMOS: Transistor{Vth: p.VthP + c.dP1, K: p.KP, N: p.SlopeN},
	}
	inv2 = Inverter{
		NMOS: Transistor{Vth: p.VthN + c.dN2, K: p.KN, N: p.SlopeN},
		PMOS: Transistor{Vth: p.VthP + c.dP2, K: p.KP, N: p.SlopeN},
	}
	return
}

// readLift solves the pseudo-read voltage divider on a low-storing node:
// the access transistor (gate at VWordLine, drain at the precharged
// VBitLine) pulls the node up while the latch pull-down (gate at the
// opposite node, ≈ the latch supply) holds it low. The node settles where
// the currents balance. With the latch supply scaled down and the word
// line held at nominal, the pull-down starves and the lift grows until
// it destroys the stored state — the paper's controllable error source.
func readLift(vdd float64, pullDown Transistor, p CellParams) float64 {
	access := Transistor{Vth: p.VthN, K: p.KAccess, N: p.SlopeN}
	f := func(v float64) float64 {
		ipd := pullDown.Ids(vdd, v)
		iac := access.Ids(p.VWordLine-v, p.VBitLine-v)
		return ipd - iac
	}
	lo, hi := 0.0, p.VBitLine
	if f(lo) > 0 {
		return 0
	}
	if f(hi) < 0 {
		return hi
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

// curve is a uniformly sampled voltage transfer function on [0, vdd].
type curve struct {
	vdd     float64
	samples []float64
}

// at evaluates the curve with linear interpolation, clamping the input
// to [0, vdd].
func (c curve) at(x float64) float64 {
	n := len(c.samples)
	if x <= 0 {
		return c.samples[0]
	}
	if x >= c.vdd {
		return c.samples[n-1]
	}
	t := x / c.vdd * float64(n-1)
	i := int(t)
	if i >= n-1 {
		return c.samples[n-1]
	}
	frac := t - float64(i)
	return c.samples[i] + frac*(c.samples[i+1]-c.samples[i])
}

// ReadSNM returns the static noise margins of the two stored states
// during a read access at supply vdd: snm0 protects the state "node1
// low" (stored 0), snm1 protects "node1 high" (stored 1). A margin <= 0
// means the state does not survive the read at all.
//
// The margin is extracted with the Seevinck noise-source criterion: two
// adverse DC sources of magnitude δ are inserted at the inverter inputs
// and the cross-coupled map is iterated from the read-disturbed state
// point; the SNM is the largest δ for which the stored state still has a
// stable basin.
func (c Cell) ReadSNM(vdd float64, p CellParams) (snm0, snm1 float64) {
	inv1, inv2 := c.inverters(p)
	// Each node's read lift is set by its own pull-down NMOS.
	lift2 := readLift(vdd, inv1.NMOS, p) // node2 = output of inv1
	lift1 := readLift(vdd, inv2.NMOS, p) // node1 = output of inv2
	points := p.VTCPoints
	if points < 8 {
		points = 8
	}
	_, fs := inv1.VTC(vdd, lift2, points) // node2 = F(node1)
	_, gs := inv2.VTC(vdd, lift1, points) // node1 = G(node2)
	f := curve{vdd: vdd, samples: fs}
	g := curve{vdd: vdd, samples: gs}
	snm0 = basinMargin(f, g, lift1, lift2, vdd)
	snm1 = basinMargin(g, f, lift2, lift1, vdd)
	return
}

// basinMargin measures how much adverse series noise the state "self
// node low, other node high" tolerates. f maps the self node to the
// other node; g maps back. liftSelf is the read lift of the self node
// (its disturbed starting point).
//
// A dead state returns a non-positive margin whose magnitude grows with
// how decisively the latch resolves against it, with a lift-difference
// term so that of two dead states the one with the weaker pull-down
// (larger lift) reads as more strongly dis-preferred.
func basinMargin(f, g curve, liftSelf, liftOther, vdd float64) float64 {
	alive := func(delta float64) bool {
		u := liftSelf
		for i := 0; i < 200; i++ {
			w := f.at(u + delta)    // other node, input raised by noise
			next := g.at(w - delta) // self node, other input lowered
			if next < liftSelf {
				next = liftSelf
			}
			if math.Abs(next-u) < 1e-7 {
				u = next
				break
			}
			u = next
		}
		w := f.at(u + delta)
		return w-(u+delta) > 0
	}
	if !alive(0) {
		// Resolve the dead-state depth at delta = 0 for directionality.
		u := liftSelf
		for i := 0; i < 200; i++ {
			next := g.at(f.at(u))
			if next < liftSelf {
				next = liftSelf
			}
			if math.Abs(next-u) < 1e-7 {
				u = next
				break
			}
			u = next
		}
		depth := (u - f.at(u)) / 2
		if depth < 0 {
			depth = 0
		}
		return -1e-9 - depth - (liftSelf-liftOther)/4
	}
	lo, hi := 0.0, vdd
	for i := 0; i < 30; i++ {
		mid := (lo + hi) / 2
		if alive(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// FlipProbability returns the chance that a pseudo-read at supply vdd
// leaves the cell storing the opposite of the stored bit.
//
//   - stored state stable, margin snm > 0: the Gaussian node disturbance
//     must exceed the margin, P = 1 - Φ(snm/σ).
//   - only the stored state unstable: deterministic flip, P = 1.
//   - both states unstable (deep supply collapse): the latch resolves to
//     the side its mismatch prefers, so P = 1 iff the stored bit differs
//     from the preferred bit. Averaged over random data this yields the
//     ~50 % plateau of Fig. 6(b).
func (c Cell) FlipProbability(stored uint8, vdd float64, p CellParams) float64 {
	snm0, snm1 := c.ReadSNM(vdd, p)
	snmStored, snmOther := snm0, snm1
	if stored != 0 {
		snmStored, snmOther = snm1, snm0
	}
	if snmStored <= 0 {
		if snmOther <= 0 {
			// Full collapse: resolves toward the stronger side.
			if snmOther > snmStored {
				return 1
			}
			return 0
		}
		return 1
	}
	if snmOther <= 0 {
		// The stored state is the only stable one: a disturbance
		// excursion falls back, so no persistent error.
		return 0
	}
	sigma := p.effDisturbSigma()
	if sigma <= 0 {
		return 0
	}
	return 1 - normCDF(snmStored/sigma)
}

// normCDF is the standard normal CDF.
func normCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// ErrorRateCurve runs a Monte Carlo over nSamples independently
// fabricated cells and returns, at each supply of the sweep, the
// fraction whose pseudo-read of random stored data comes back flipped.
// One fabricated population is reused for every voltage (the same chip
// is measured at each V_DD). This is the experiment behind Fig. 6(b);
// the paper uses nSamples = 1000.
func ErrorRateCurve(p CellParams, vdds []float64, nSamples int, seed uint64) []float64 {
	r := rng.New(seed)
	cells := make([]Cell, nSamples)
	for i := range cells {
		cells[i] = SampleCell(r, p)
	}
	rates := make([]float64, len(vdds))
	for vi, vdd := range vdds {
		sum := 0.0
		for _, cell := range cells {
			sum += 0.5 * (cell.FlipProbability(0, vdd, p) + cell.FlipProbability(1, vdd, p))
		}
		rates[vi] = sum / float64(nSamples)
	}
	return rates
}

// SweepVDD returns the paper's Fig. 6 sweep: 200 mV to 800 mV inclusive
// in `step` volt increments.
func SweepVDD(step float64) []float64 {
	if step <= 0 {
		step = 0.05
	}
	var out []float64
	for v := 0.2; v <= 0.8+1e-9; v += step {
		out = append(out, math.Round(v*1e6)/1e6)
	}
	return out
}
