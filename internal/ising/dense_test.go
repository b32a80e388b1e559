package ising

// Dense row scans over every column of J: the reference that the
// compiled Sparse view is compared against, bit for bit.

// LocalField returns Σ_j J_ij σ_j + h_i, the effective field on spin i.
func (m *Model) LocalField(spins []int8, i int) float64 {
	f := m.H[i]
	row := m.J[i]
	for j, s := range spins {
		f += row[j] * float64(s)
	}
	// J[i][i] is zero so including j==i above is harmless.
	return f
}

// DeltaFlip returns the total-energy change from flipping spin i.
func (m *Model) DeltaFlip(spins []int8, i int) float64 {
	// H_new - H_old = 2 * field * sigma_i (flipping sigma -> -sigma).
	return 2 * m.LocalField(spins, i) * float64(spins[i])
}
