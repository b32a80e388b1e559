package ising

// Sparse is a compiled, read-only view of a Model that stores only the
// couplings that exist: row i's nonzero columns in ascending order with
// their values (CSR form), plus the fields. It is the paper's weight
// sparsity applied to the software engines. Every spin engine runs on
// it, so a proposal costs O(degree) instead of O(N).
//
// The view is bit-identical to a dense row scan. The dense sum differs
// only by the terms 0·σ_j = ±0, and adding ±0 to a nonzero partial sum
// is exact, so the only possible difference is the sign of an exactly
// zero field. Every consumer treats ±0 alike (DESIGN.md, "Sparse
// coupling rows").
type Sparse struct {
	// N is the spin count; h holds the external fields.
	N int
	h []float64
	// Row i occupies col[start[i]:start[i+1]] and the same span of val;
	// its couplings to higher-indexed spins begin at upper[i].
	start, upper []int
	col          []int32
	val          []float64
}

// Compile builds the sparse view of m, scanning the dense matrix once
// (O(N²)). The view copies what it keeps, so later edits to m do not
// reach it.
func Compile(m *Model) *Sparse {
	s := &Sparse{
		N:     m.N,
		h:     append([]float64(nil), m.H...),
		start: make([]int, m.N+1),
		upper: make([]int, m.N),
	}
	for i, row := range m.J {
		s.start[i] = len(s.col)
		for j, v := range row {
			if v != 0 {
				s.col = append(s.col, int32(j))
				s.val = append(s.val, v)
			}
			if j == i {
				s.upper[i] = len(s.col)
			}
		}
	}
	s.start[m.N] = len(s.col)
	return s
}

// Row returns spin i's nonzero couplings: ascending columns and their
// values. The slices alias the view and must not be modified.
func (s *Sparse) Row(i int) ([]int32, []float64) {
	lo, hi := s.start[i], s.start[i+1]
	return s.col[lo:hi], s.val[lo:hi]
}

// LocalField returns Σ_j J_ij σ_j + h_i, the effective field on spin i.
func (s *Sparse) LocalField(spins []int8, i int) float64 {
	f := s.h[i]
	cols, vals := s.Row(i)
	vals = vals[:len(cols)]
	for k, j := range cols {
		f += vals[k] * float64(spins[j])
	}
	return f
}

// DeltaFlip returns the total-energy change from flipping spin i.
func (s *Sparse) DeltaFlip(spins []int8, i int) float64 {
	// H_new - H_old = 2 * field * sigma_i (flipping sigma -> -sigma).
	return 2 * s.LocalField(spins, i) * float64(spins[i])
}

// Energy returns the total Hamiltonian of the spin assignment, summing
// each coupling once from the upper triangle in the same order as
// Model.Energy.
func (s *Sparse) Energy(spins []int8) float64 {
	var e float64
	for i := 0; i < s.N; i++ {
		si := float64(spins[i])
		e -= s.h[i] * si
		lo, hi := s.upper[i], s.start[i+1]
		cols, vals := s.col[lo:hi], s.val[lo:hi]
		for k, j := range cols {
			e -= vals[k] * si * float64(spins[j])
		}
	}
	return e
}
