package clustered

import (
	"strings"
	"testing"

	"cimsa/internal/cim"
	"cimsa/internal/cluster"
	"cimsa/internal/noise"
	"cimsa/internal/tsplib"
)

// corruptibleState builds a tiny levelState suitable for white-box
// validation checks.
func corruptibleState(t *testing.T) *levelState {
	t.Helper()
	in := tsplib.Generate("inv", 24, tsplib.StyleUniform, 3)
	h, err := cluster.Build(in.Cities, cluster.Strategy{Kind: cluster.SemiFlex, P: 3})
	if err != nil {
		t.Fatal(err)
	}
	return newLevelState(h.Levels[1])
}

func TestValidateClusterOrders(t *testing.T) {
	state := corruptibleState(t)
	if err := validateClusterOrders(state, 1); err != nil {
		t.Fatalf("pristine state rejected: %v", err)
	}

	// A duplicated child index (the shape a lost-update race would
	// leave behind) must be caught before expansion.
	victim := -1
	for ci, p := range state.sizes {
		if p >= 2 && p < 8 {
			victim = ci
			break
		}
	}
	if victim < 0 {
		t.Fatal("no multi-child cluster to corrupt")
	}
	p := int(state.sizes[victim])
	good := state.orders[victim]
	order := good.Unpack(p, nil)
	order[0] = order[1]
	state.orders[victim] = cim.PackOrder(order)
	err := validateClusterOrders(state, 1)
	if err == nil || !strings.Contains(err.Error(), "not a permutation") {
		t.Fatalf("duplicate child index not caught: %v", err)
	}

	// An out-of-range index must be caught too.
	order = good.Unpack(p, nil)
	order[0] = p
	state.orders[victim] = cim.PackOrder(order)
	if err := validateClusterOrders(state, 1); err == nil {
		t.Fatal("out-of-range child index not caught")
	}

	// Bits beyond the cluster's slots (an overflowing pack or a stray
	// write) must be caught.
	state.orders[victim] = good | 1<<(3*p)
	if err := validateClusterOrders(state, 1); err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Fatalf("stray high bits not caught: %v", err)
	}
	state.orders[victim] = good
	if err := validateClusterOrders(state, 1); err != nil {
		t.Fatalf("restored state rejected: %v", err)
	}
}

// Clean-mode window refreshes must be genuinely clean: in every
// non-noisy mode the solve result is independent of the noise fabric,
// because refreshes run at the device's nominal supply with zero noisy
// LSBs. A hardcoded sub-nominal refresh voltage would let the fabric
// leak into the "clean" ablation baselines.
func TestCleanModeRefreshIndependentOfFabric(t *testing.T) {
	in := tsplib.Generate("cleanref", 240, tsplib.StyleClustered, 11)
	for _, mode := range []Mode{ModeGreedy, ModeMetropolis} {
		base, err := Solve(in, Options{Mode: mode, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		// A different fabric (different per-cell polarities and critical
		// voltages) must not change anything in a clean mode.
		other, err := Solve(in, Options{Mode: mode, Seed: 5, Fabric: noise.NewFabric(0xdeadbeef)})
		if err != nil {
			t.Fatal(err)
		}
		if base.Length != other.Length {
			t.Fatalf("mode %s: fabric leaked into clean refresh (%v vs %v)",
				mode, base.Length, other.Length)
		}
		for i := range base.Tour {
			if base.Tour[i] != other.Tour[i] {
				t.Fatalf("mode %s: tours diverge at %d under fabric change", mode, i)
			}
		}
	}
}
