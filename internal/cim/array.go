package cim

import "fmt"

// Array geometry constants from Table II: every memory array holds five
// rows and two columns of windows. Consecutive clusters alternate
// between the two window columns, so the window MUX selects the "solid"
// (odd-cluster) or "dash" (even-cluster) column and all five rows update
// in parallel during that phase.
const (
	WindowRowsPerArray = 5
	WindowColsPerArray = 2
	WindowsPerArray    = WindowRowsPerArray * WindowColsPerArray
)

// ArrayOf returns which array a cluster's window lives in.
func ArrayOf(cluster int) int { return cluster / WindowsPerArray }

// ArrayCount returns how many arrays hold the given number of windows.
func ArrayCount(windows int) int {
	return (windows + WindowsPerArray - 1) / WindowsPerArray
}

// ArrayGeometry is the physical cell grid of one array for a maximum
// cluster size pMax (Table II): rows = 5 window rows of (pMax²+2pMax)
// cells; columns = 2 window columns of pMax² weights × 8 bits.
type ArrayGeometry struct {
	PMax       int
	CellRows   int
	CellCols   int
	WeightBits int
}

// GeometryFor returns the Table II array geometry for pMax.
func GeometryFor(pMax int) (ArrayGeometry, error) {
	if pMax < 2 || pMax > 8 {
		return ArrayGeometry{}, fmt.Errorf("cim: pMax %d out of supported range", pMax)
	}
	rows := WindowRowsPerArray * ProvisionedRows(pMax)
	cols := WindowColsPerArray * ProvisionedCols(pMax) * 8
	return ArrayGeometry{PMax: pMax, CellRows: rows, CellCols: cols, WeightBits: 8}, nil
}

// Cycle-accurate constants for the update pipeline (Fig. 5a): the spin
// states before the swap feed the MACs in two cycles, the states after
// the swap in two more, and one cycle compares the energies and updates
// the input registers (which also covers the p-bit neighbour transfer of
// Fig. 5e: it is overlapped with the compare).
const (
	CyclesPerMAC     = 1
	MACsPerSwap      = 4
	CyclesPerCompare = 1
	// CyclesPerSwap is the cycle cost of one swap trial in one phase.
	CyclesPerSwap = MACsPerSwap*CyclesPerMAC + CyclesPerCompare
	// PhasesPerIteration: solid then dash.
	PhasesPerIteration = 2
	// CyclesPerIteration is the cycle cost of one full update iteration
	// across all clusters (both chromatic phases, all arrays in
	// parallel).
	CyclesPerIteration = PhasesPerIteration * CyclesPerSwap
)

// BoundaryTransferBits returns the number of bits exchanged between
// neighbouring arrays per phase (Fig. 5e): p one-hot bits identifying
// the boundary element moving upstream or downstream.
func BoundaryTransferBits(pMax int) int { return pMax }
