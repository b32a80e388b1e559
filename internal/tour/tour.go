// Package tour represents closed TSP tours and their basic operations:
// length evaluation, validity checking and canonicalization.
package tour

import (
	"fmt"

	"cimsa/internal/tsplib"
)

// Tour is a cyclic permutation of city indices: Tour[i] is the i-th city
// visited; the tour closes from the last city back to the first.
type Tour []int

// New returns the identity tour over n cities.
func New(n int) Tour {
	t := make(Tour, n)
	for i := range t {
		t[i] = i
	}
	return t
}

// Clone returns a copy of the tour.
func (t Tour) Clone() Tour {
	c := make(Tour, len(t))
	copy(c, t)
	return c
}

// Length returns the closed tour length under the instance's metric.
func (t Tour) Length(in *tsplib.Instance) float64 {
	if len(t) < 2 {
		return 0
	}
	var sum float64
	for i := 1; i < len(t); i++ {
		sum += in.Dist(t[i-1], t[i])
	}
	sum += in.Dist(t[len(t)-1], t[0])
	return sum
}

// Validate checks that t is a permutation of [0, n).
func (t Tour) Validate(n int) error {
	if len(t) != n {
		return fmt.Errorf("tour: length %d, want %d", len(t), n)
	}
	seen := make([]bool, n)
	for i, c := range t {
		if c < 0 || c >= n {
			return fmt.Errorf("tour: position %d holds out-of-range city %d", i, c)
		}
		if seen[c] {
			return fmt.Errorf("tour: city %d visited more than once", c)
		}
		seen[c] = true
	}
	return nil
}

// Reverse reverses the tour segment [i, j] in place (inclusive bounds).
func (t Tour) Reverse(i, j int) {
	for i < j {
		t[i], t[j] = t[j], t[i]
		i++
		j--
	}
}

// Positions returns the inverse permutation: pos[city] = index in tour.
func (t Tour) Positions() []int {
	pos := make([]int, len(t))
	for i, c := range t {
		pos[c] = i
	}
	return pos
}
