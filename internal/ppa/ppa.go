// Package ppa is the NeuroSim-style performance/power/area model of the
// digital CIM annealer chip (§V.B of the paper): 16 nm FinFET, the 14T
// cell of Fig. 5(b), arrays of 5×2 weight windows, adder-tree MACs at
// 1 GHz, and periodic weight write-backs.
//
// Calibration: the 22 nm cell dimensions come from the digital CIM
// prototype the paper cites ([6]: 6T SRAM ≈ 0.5×0.5 µm, 4T NOR ≈
// 0.5×0.25 µm, giving a 1.0×0.5 µm 14T cell with the MUX transmission
// gates stacked under the SRAM) and are scaled linearly to 16 nm. The
// periphery model (decoders, switch matrix, adder trees) is fitted so
// the three Table II array geometries reproduce to within ~3 %, and the
// per-op energies are chosen within published 16 nm ranges such that the
// pla85900/p_max=3 chip lands on the paper's 43.7 mm² / 433 mW. Every
// fitted constant is named below; tests pin the calibration targets.
package ppa

import (
	"fmt"

	"cimsa/internal/cim"
	"cimsa/internal/cluster"
)

// Tech bundles the technology constants.
type Tech struct {
	// Name labels the node.
	Name string
	// CellWidthUM/CellHeightUM are the 14T cell dimensions in µm.
	CellWidthUM, CellHeightUM float64
	// ClockGHz is the macro clock.
	ClockGHz float64
	// Periphery fit: extra height = PeriphH0 + PeriphHPerRow × cellRows;
	// extra width = PeriphW0 + PeriphWPerCol × cellCols (µm).
	PeriphH0, PeriphHPerRow float64
	PeriphW0, PeriphWPerCol float64
	// ENorFJ is the energy of one NOR 1-bit multiply (fJ).
	ENorFJ float64
	// EFullAdderFJ is the energy of one full-adder bit operation (fJ).
	EFullAdderFJ float64
	// EArrayOverheadFJ is the per-array per-cycle control/MUX/register
	// overhead (fJ).
	EArrayOverheadFJ float64
	// EWriteBitFJ is the energy to write one SRAM bit including drivers
	// (fJ).
	EWriteBitFJ float64
}

// Tech16nm returns the calibrated 16/14 nm FinFET parameters.
func Tech16nm() Tech {
	const scale = 16.0 / 22.0 // linear shrink from the 22 nm reference cell
	return Tech{
		Name:             "16nm FinFET",
		CellWidthUM:      0.5 * scale,
		CellHeightUM:     1.0 * scale,
		ClockGHz:         1.0,
		PeriphH0:         5.0,
		PeriphHPerRow:    0.574,
		PeriphW0:         19.3,
		PeriphWPerCol:    0.193,
		ENorFJ:           0.06,
		EFullAdderFJ:     0.10,
		EArrayOverheadFJ: 3.0,
		EWriteBitFJ:      0.8,
	}
}

// ArrayPPA is the physical model of one memory array.
type ArrayPPA struct {
	Geometry cim.ArrayGeometry
	// WidthUM/HeightUM/AreaUM2 include periphery.
	WidthUM, HeightUM, AreaUM2 float64
	// EnergyPerCycleFJ is the dynamic energy of one compute cycle: five
	// windows MAC one column each through their adder trees.
	EnergyPerCycleFJ float64
}

// ArrayModel evaluates the array PPA for a maximum cluster size.
func ArrayModel(pMax int, t Tech) (ArrayPPA, error) {
	g, err := cim.GeometryFor(pMax)
	if err != nil {
		return ArrayPPA{}, err
	}
	cellH := float64(g.CellRows) * t.CellHeightUM
	cellW := float64(g.CellCols) * t.CellWidthUM
	h := cellH + t.PeriphH0 + t.PeriphHPerRow*float64(g.CellRows)
	w := cellW + t.PeriphW0 + t.PeriphWPerCol*float64(g.CellCols)
	// Energy: per active window, every cell of the selected column's
	// rows computes a NOR per bit plane, then the adder tree reduces.
	rows := cim.ProvisionedRows(pMax)
	tree := cim.AdderTree{Inputs: rows}
	norOps := float64(rows * g.WeightBits)
	faOps := float64(tree.AdderCount(g.WeightBits))
	perWindow := norOps*t.ENorFJ + faOps*t.EFullAdderFJ
	energy := float64(cim.WindowRowsPerArray)*perWindow + t.EArrayOverheadFJ
	return ArrayPPA{
		Geometry:         g,
		WidthUM:          w,
		HeightUM:         h,
		AreaUM2:          w * h,
		EnergyPerCycleFJ: energy,
	}, nil
}

// RunProfile abstracts what the solver did, in hardware units. It is
// deliberately a plain struct so the PPA model does not depend on the
// solver package.
type RunProfile struct {
	// Levels is the number of annealed hierarchy levels.
	Levels int
	// IterationsPerLevel is the update count per level (400 in the
	// paper's schedule).
	IterationsPerLevel int
	// EpochIters is the write-back period (50 in the paper).
	EpochIters int
}

// ChipReport is the full system PPA for one problem instance.
type ChipReport struct {
	PMax    int
	N       int
	Windows int
	Arrays  int
	Array   ArrayPPA
	// PhysicalWeightBits is the provisioned SRAM capacity in bits.
	PhysicalWeightBits int64
	// PhysicalSpins is the provisioned spin count (p² per window).
	PhysicalSpins int64
	// AreaMM2 is the chip area.
	AreaMM2 float64
	// PowerMW is the dynamic compute power with every array active.
	PowerMW float64
	// ComputeCycles / WriteCycles split the runtime.
	ComputeCycles, WriteCycles int64
	// ComputeSeconds/WriteSeconds/LatencySeconds are the time-to-solution
	// breakdown.
	ComputeSeconds, WriteSeconds, LatencySeconds float64
	// ReadEnergyJ/WriteEnergyJ/EnergyJ are the energy-to-solution
	// breakdown (read = MAC compute, following the paper's terminology).
	ReadEnergyJ, WriteEnergyJ, EnergyJ float64
}

// Chip sizes the hardware for an n-city problem with the semi-flexible
// strategy at pMax and evaluates the run profile on it.
func Chip(n, pMax int, prof RunProfile, t Tech) (ChipReport, error) {
	if n < 3 {
		return ChipReport{}, fmt.Errorf("ppa: n = %d", n)
	}
	arr, err := ArrayModel(pMax, t)
	if err != nil {
		return ChipReport{}, err
	}
	if prof.Levels <= 0 || prof.IterationsPerLevel <= 0 || prof.EpochIters <= 0 {
		return ChipReport{}, fmt.Errorf("ppa: empty run profile %+v", prof)
	}
	strategy := cluster.Strategy{Kind: cluster.SemiFlex, P: pMax}
	weights := cluster.ProvisionedWeights(n, strategy)
	perWindow := cim.ProvisionedRows(pMax) * cim.ProvisionedCols(pMax)
	windows := weights / perWindow
	arrays := cim.ArrayCount(windows)

	rep := ChipReport{
		PMax:               pMax,
		N:                  n,
		Windows:            windows,
		Arrays:             arrays,
		Array:              arr,
		PhysicalWeightBits: int64(weights) * 8,
		PhysicalSpins:      int64(windows) * int64(pMax*pMax),
		AreaMM2:            float64(arrays) * arr.AreaUM2 / 1e6,
	}
	cycleSeconds := 1e-9 / t.ClockGHz

	// Compute cycles: each iteration costs CyclesPerIteration; all
	// arrays work in parallel, so cluster count does not appear.
	rep.ComputeCycles = int64(prof.Levels) * int64(prof.IterationsPerLevel) * int64(cim.CyclesPerIteration)
	// Write cycles: one write-back per epoch rewrites every array row
	// (one row per cycle, arrays in parallel).
	epochs := (prof.IterationsPerLevel + prof.EpochIters - 1) / prof.EpochIters
	rep.WriteCycles = int64(prof.Levels) * int64(epochs) * int64(arr.Geometry.CellRows)
	rep.ComputeSeconds = float64(rep.ComputeCycles) * cycleSeconds
	rep.WriteSeconds = float64(rep.WriteCycles) * cycleSeconds
	rep.LatencySeconds = rep.ComputeSeconds + rep.WriteSeconds

	// Power: every array burns EnergyPerCycle each compute cycle.
	rep.PowerMW = float64(arrays) * arr.EnergyPerCycleFJ * 1e-15 * t.ClockGHz * 1e9 * 1e3

	rep.ReadEnergyJ = float64(arrays) * arr.EnergyPerCycleFJ * 1e-15 * float64(rep.ComputeCycles)
	bitsPerEpoch := float64(arrays) * float64(arr.Geometry.CellRows) * float64(arr.Geometry.CellCols)
	rep.WriteEnergyJ = bitsPerEpoch * float64(epochs) * float64(prof.Levels) * t.EWriteBitFJ * 1e-15
	rep.EnergyJ = rep.ReadEnergyJ + rep.WriteEnergyJ
	return rep, nil
}

// PaperProfile returns the paper's run profile for an n-city problem at
// pMax: 400 iterations per level with 50-iteration epochs, and the level
// count implied by the semi-flexible shrink rate (1+pMax)/2 down to the
// directly-solved top.
func PaperProfile(n, pMax int) RunProfile {
	levels := 0
	m := n
	for m > cluster.TopThreshold {
		m = (2*m + pMax) / (1 + pMax)
		levels++
	}
	if levels == 0 {
		levels = 1
	}
	return RunProfile{Levels: levels, IterationsPerLevel: 400, EpochIters: 50}
}

// AreaPerWeightBitUM2 is the physical Table III metric.
func (r ChipReport) AreaPerWeightBitUM2() float64 {
	return r.AreaMM2 * 1e6 / float64(r.PhysicalWeightBits)
}

// PowerPerWeightBitNW is the physical Table III metric.
func (r ChipReport) PowerPerWeightBitNW() float64 {
	return r.PowerMW * 1e6 / float64(r.PhysicalWeightBits)
}

// FunctionalSpins returns the spin count the same problem needs before
// the clustering/compact-mapping optimizations: N².
func FunctionalSpins(n int) float64 { return float64(n) * float64(n) }

// FunctionalWeightBits returns the weight storage an unoptimized PBM
// formulation needs: N⁴ couplings × 8 bits.
func FunctionalWeightBits(n int) float64 {
	n2 := float64(n) * float64(n)
	return n2 * n2 * 8
}

// NormalizedAreaPerWeightBitUM2 divides chip area by the functionally
// equivalent weight bits (Table III's †† rows).
func (r ChipReport) NormalizedAreaPerWeightBitUM2() float64 {
	return r.AreaMM2 * 1e6 / FunctionalWeightBits(r.N)
}

// NormalizedPowerPerWeightBitNW divides chip power by the functionally
// equivalent weight bits.
func (r ChipReport) NormalizedPowerPerWeightBitNW() float64 {
	return r.PowerMW * 1e6 / FunctionalWeightBits(r.N)
}

// MemoryCapacityBits returns the weight storage (in bits) each design
// point of Fig. 1 needs for an n-city TSP: the unoptimized PBM (O(N⁴)),
// the clustered design (O(N²)) and this work's compact design (O(N)).
func MemoryCapacityBits(n, p int) (pbm, clusteredBits, compact float64) {
	pbm = FunctionalWeightBits(n)
	pn := float64(p) * float64(n)
	clusteredBits = pn * pn * 8
	compact = float64(cluster.ProvisionedWeights(n, cluster.Strategy{Kind: cluster.SemiFlex, P: p})) * 8
	return
}
