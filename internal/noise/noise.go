// Package noise implements the noisy SRAM weight fabric (§IV of the
// paper): every stored weight bit lives in a physical cell whose process
// mismatch gives it a fixed "preferred" value and a fixed vulnerability.
// During a pseudo-read at reduced V_DD, vulnerable cells return their
// preferred value instead of the written one. The error pattern is
// purely spatial — rerunning at the same V_DD yields the same pattern —
// and becomes temporal noise only because the annealer addresses
// different cells on different cycles (the paper's key conversion).
//
// The fabric is virtual: a cell's (preference, vulnerability) pair is
// derived from a hash of its identifier, so a 46 Mb array costs no
// memory. Vulnerability is calibrated against the device package's
// Monte Carlo error-rate model: the marginal error rate over random
// stored data equals ErrorModel.Rate(vdd).
package noise

import (
	"fmt"

	"cimsa/internal/device"
	"cimsa/internal/fixed"
)

// SRAM is the paper's fabric: a virtual sea of SRAM cells with frozen
// process variation. It implements Fabric.
type SRAM struct {
	// Model converts a supply voltage to a pseudo-read error rate.
	Model device.ErrorModel
	// Seed selects the fabricated chip; two fabrics with the same seed
	// have identical variation maps.
	Seed uint64
}

// NewFabric builds an SRAM fabric over the default 16 nm error model.
func NewFabric(seed uint64) *SRAM {
	return &SRAM{Model: device.DefaultErrorModel(), Seed: seed}
}

// Kind implements Fabric.
func (f *SRAM) Kind() string { return KindSRAM }

// Params implements Fabric: the committed error-model constants plus
// the chip seed.
func (f *SRAM) Params() string {
	return fmt.Sprintf("max=%g v50=%g slope=%g seed=%d", f.Model.MaxRate, f.Model.V50, f.Model.Slope, f.Seed)
}

// Version implements Fabric; bump on any change to the SRAM bit stream
// for a fixed (cell, vdd, seed).
func (f *SRAM) Version() string { return "sram/v1" }

// Rate implements Fabric.
func (f *SRAM) Rate(vdd float64) float64 { return f.Model.Rate(vdd) }

// At implements Fabric, hoisting everything that depends only on the
// supply and the chip out of the per-cell loop: the sigmoid-derived
// vulnerability probability, scaled to the hash's 53-bit range, and the
// seed's contribution to the cell hash.
func (f *SRAM) At(vdd float64) Epoch {
	return sramEpoch{salt: f.salt(), limit: f.VulnProb(vdd) * (1 << 53)}
}

// sramEpoch is one SRAM pseudo-read pass at a fixed supply. A read is
// one cell hash and one compare. The cell's fabrication fingerprint is
// 64 stable hash bits: the low bit is its preferred value and the top
// 53 a uniform u in [0,1), vulnerable below VulnProb. Since both sides
// scale exactly by 2^53, u53(h) < p is float64(h>>11) < p·2^53 = limit.
// Vulnerability is therefore monotone: a cell vulnerable at some V_DD
// stays vulnerable at every lower V_DD.
type sramEpoch struct {
	salt  uint64
	limit float64
}

// ReadBit implements Epoch.
func (e sramEpoch) ReadBit(cellID uint64, stored uint8) uint8 {
	h := mix64(cellID ^ e.salt)
	if float64(h>>11) < e.limit {
		return uint8(h & 1)
	}
	return stored
}

// ReadCode implements Epoch: it pseudo-reads an 8-bit weight whose bit
// b lives in cell baseCellID + b. Only the nLSB least significant bit
// planes operate at the reduced supply; the MSBs run at nominal supply
// and read back clean (the paper's MSB/LSB split placement, Fig. 5c).
// It is ReadBit over those planes, written out rather than through
// readCodeBits: a ReadBit
// called through the helper's type-parameter dictionary is never
// inlined, and this loop is most of a noisy epoch's pseudo-read cost.
// A vulnerable cell reads its preferred bit, the cell hash's low bit.
func (e sramEpoch) ReadCode(code uint8, baseCellID uint64, nLSB int) uint8 {
	if nLSB > fixed.Bits {
		nLSB = fixed.Bits
	}
	out := code
	for b := 0; b < nLSB; b++ {
		h := mix64((baseCellID + uint64(b)) ^ e.salt)
		if float64(h>>11) < e.limit {
			out = out&^(1<<b) | uint8(h&1)<<b
		}
	}
	return out
}

// salt is the chip seed's contribution to every cell hash.
func (f *SRAM) salt() uint64 { return f.Seed * 0x9e3779b97f4a7c15 }

// VulnProb returns the probability that a cell is vulnerable at supply
// vdd. The error rate is over random stored data, so P(vulnerable) is
// twice the rate, capped at 1. The conversion involves the error-model
// sigmoid (an exp); hot paths that sweep many cells at one supply read
// through At, which computes it once.
func (f *SRAM) VulnProb(vdd float64) float64 {
	p := 2 * f.Model.Rate(vdd)
	if p > 1 {
		p = 1
	}
	return p
}

// ReadBit returns the value observed when pseudo-reading a cell that was
// written with `stored` at supply vdd.
func (f *SRAM) ReadBit(cellID uint64, stored uint8, vdd float64) uint8 {
	return f.At(vdd).ReadBit(cellID, stored)
}

// Cell-identifier packing. Every physical bit in the chip has a stable
// 64-bit address composed of four fields:
//
//	bit 63      : namespace flag — 0 for weight-window cells (CellID),
//	              1 for the spin-register cells of the noisy-spins
//	              ablation (SpinCellID). Reserving the bit keeps the two
//	              populations disjoint at any cluster count, instead of
//	              colliding once a level reaches 2^20 windows.
//	bits 32..62 : window index (31 bits)
//	bits 20..31 : row within the window (12 bits)
//	bits  8..19 : column within the window (12 bits)
//	bits  0..7  : bit plane (8 bits)
//
// The widths are enforced: an out-of-range coordinate would silently
// alias another cell's variation, so it panics instead (it is always a
// caller bug — provisioned windows are at most pMax²+2pMax = 80 rows).
const (
	cellWindowBits = 31
	cellRowBits    = 12
	cellColBits    = 12
	cellBitBits    = 8
	// spinNamespace marks cell IDs of the noisy-spins ablation's
	// virtual spin registers (bit 63).
	spinNamespace = uint64(1) << 63
)

// CellID composes the cell identifier of weight bit `bit` at (row, col)
// of the given window. See the packing contract above; out-of-range
// coordinates panic.
func CellID(window, row, col, bit int) uint64 {
	checkField("window", window, cellWindowBits)
	checkField("row", row, cellRowBits)
	checkField("col", col, cellColBits)
	checkField("bit", bit, cellBitBits)
	return uint64(window)<<32 | uint64(row)<<CellRowShift | uint64(col)<<CellColShift | uint64(bit)
}

// CellRowShift and CellColShift place the row and column fields of a
// cell ID: CellID(w, row, col, bit) is CellID(w, 0, 0, bit) |
// row<<CellRowShift | col<<CellColShift for every in-range row and
// column, so a caller that has bounded them can offset one base ID.
const (
	CellRowShift = 20
	CellColShift = 8
)

// SpinCellID composes the cell identifier of the virtual spin-register
// cell for (cluster, slot) — the noisy-spins ablation's input bits.
// The reserved namespace bit keeps these disjoint from every weight
// cell at any cluster count; out-of-range coordinates panic.
func SpinCellID(cluster, slot int) uint64 {
	checkField("cluster", cluster, cellWindowBits)
	checkField("slot", slot, cellRowBits)
	return spinNamespace | uint64(cluster)<<32 | uint64(slot)<<20
}

// checkField guards one packed field against silent aliasing.
func checkField(name string, v, bits int) {
	if v < 0 || v >= 1<<bits {
		panic(fmt.Sprintf("noise: cell %s %d outside its %d-bit field", name, v, bits))
	}
}

// Schedule is the paper's annealing schedule (§V): epochs of EpochIters
// iterations; each epoch writes the clean weights back, raises V_DD by
// VDDStep and reduces the number of noisy LSBs by one.
type Schedule struct {
	// VDDStart is the supply for epoch 0 (V).
	VDDStart float64
	// VDDStep is the increment per epoch (V).
	VDDStep float64
	// Epochs is the number of epochs.
	Epochs int
	// EpochIters is the number of update iterations per epoch (the
	// write-back period).
	EpochIters int
	// StartLSBs is the number of noisy LSBs in epoch 0.
	StartLSBs int
	// FixedLSBs keeps the noisy-LSB count at StartLSBs for every epoch
	// instead of shrinking it by one per epoch (the V_DD-only ablation).
	FixedLSBs bool
}

// PaperSchedule returns the evaluation settings of §V: V_DD from 300 mV
// to 580 mV in 40 mV increments every 50 iterations (8 epochs, 400
// iterations), starting with 6 noisy LSBs out of 8.
func PaperSchedule() Schedule {
	return Schedule{
		VDDStart:   0.30,
		VDDStep:    0.04,
		Epochs:     8,
		EpochIters: 50,
		StartLSBs:  6,
	}
}

// Validate checks the schedule parameters.
func (s Schedule) Validate() error {
	if s.Epochs < 1 || s.EpochIters < 1 {
		return fmt.Errorf("noise: schedule needs >= 1 epoch and >= 1 iteration, got %d/%d", s.Epochs, s.EpochIters)
	}
	if s.VDDStart <= 0 || s.VDDStep < 0 {
		return fmt.Errorf("noise: bad voltage parameters %v/%v", s.VDDStart, s.VDDStep)
	}
	if s.StartLSBs < 0 || s.StartLSBs > fixed.Bits {
		return fmt.Errorf("noise: StartLSBs %d out of range", s.StartLSBs)
	}
	return nil
}

// TotalIters returns the total iteration count of the schedule.
func (s Schedule) TotalIters() int { return s.Epochs * s.EpochIters }

// Epoch returns the epoch index for an iteration, clamped to the last
// epoch for iterations beyond the schedule.
func (s Schedule) Epoch(iter int) int {
	e := iter / s.EpochIters
	if e >= s.Epochs {
		e = s.Epochs - 1
	}
	if e < 0 {
		e = 0
	}
	return e
}

// At returns the supply voltage and noisy-LSB count for an iteration.
func (s Schedule) At(iter int) (vdd float64, nLSB int) {
	e := s.Epoch(iter)
	vdd = s.VDDStart + float64(e)*s.VDDStep
	if s.FixedLSBs {
		return vdd, s.StartLSBs
	}
	nLSB = s.StartLSBs - e
	if nLSB < 0 {
		nLSB = 0
	}
	return
}

// NoNoise returns a schedule whose single epoch applies no noise at all;
// with it the annealer degenerates to greedy descent (used by ablations).
func NoNoise(iters int) Schedule {
	return Schedule{VDDStart: device.NominalVDD, VDDStep: 0, Epochs: 1, EpochIters: iters, StartLSBs: 0}
}
