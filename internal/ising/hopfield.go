package ising

import "fmt"

// Hopfield is the recurrent-network view of an Ising model (§II.A of the
// paper): a single fully connected layer of binary neurons whose weight
// matrix is the coupling matrix and whose biases are the external
// fields. One synchronous or asynchronous step computes each neuron's
// MAC (the local field) and thresholds it — exactly the computation the
// CIM array performs, which is why the Ising model maps onto a memory
// crossbar.
type Hopfield struct {
	s *Sparse
}

// NewHopfield compiles an Ising model into a Hopfield network over its
// sparse coupling rows; later edits to m do not reach the network.
func NewHopfield(m *Model) (*Hopfield, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("ising: hopfield: %w", err)
	}
	return &Hopfield{s: Compile(m)}, nil
}

// N returns the neuron count.
func (h *Hopfield) N() int { return h.s.N }

// StepAsync updates neuron i in place: σ_i ← sign(Σ J_ij σ_j + h_i).
// Zero local field keeps the current state (no spurious flip). Returns
// true if the neuron changed.
func (h *Hopfield) StepAsync(state []int8, i int) bool {
	field := h.s.LocalField(state, i)
	var next int8
	switch {
	case field > 0:
		next = 1
	case field < 0:
		next = -1
	default:
		next = state[i]
	}
	if next != state[i] {
		state[i] = next
		return true
	}
	return false
}

// StepSync performs one synchronous update of all neurons (every MAC
// reads the pre-update state, as a crossbar would in one cycle). It
// returns the number of neurons that changed. Synchronous Hopfield
// dynamics can 2-cycle; the annealer's chromatic schedule avoids that by
// only updating independent spins together.
func (h *Hopfield) StepSync(state []int8) int {
	fields := make([]float64, h.s.N)
	for i := range fields {
		fields[i] = h.s.LocalField(state, i)
	}
	changed := 0
	for i, f := range fields {
		var next int8
		switch {
		case f > 0:
			next = 1
		case f < 0:
			next = -1
		default:
			next = state[i]
		}
		if next != state[i] {
			state[i] = next
			changed++
		}
	}
	return changed
}

// RunAsync sweeps neurons in index order until a full pass changes
// nothing (a fixed point: every asynchronous update is energy
// non-increasing, so this terminates) or maxSweeps passes run.
// It returns the number of sweeps executed.
func (h *Hopfield) RunAsync(state []int8, maxSweeps int) int {
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		changed := false
		for i := 0; i < h.s.N; i++ {
			if h.StepAsync(state, i) {
				changed = true
			}
		}
		if !changed {
			return sweep
		}
	}
	return maxSweeps
}

// Energy returns the Hamiltonian of the state.
func (h *Hopfield) Energy(state []int8) float64 { return h.s.Energy(state) }
