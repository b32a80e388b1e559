package clustered

import (
	"fmt"

	"cimsa/internal/cluster"
)

// Snapshot captures a solve at an iteration boundary — the only points
// where no randomness is mid-flight. Because proposals and acceptance
// uniforms are counter-derived from (seed, level, iteration, cluster),
// the fabric is a stateless hash, and the weight windows are pure
// functions of the frozen centroid geometry, the complete resumable
// state is just the cluster orders plus the schedule position and the
// accumulated counters: a run restored from a Snapshot is bit-identical
// to one that never stopped, at every worker count.
type Snapshot struct {
	// TopOrder is the exact solver's order of the top-level nodes. It is
	// redundant (resume recomputes it from the instance) and kept as a
	// cross-check: a snapshot whose TopOrder disagrees with the rebuilt
	// hierarchy belongs to a different instance or solver and is
	// rejected rather than silently annealed from.
	TopOrder []int
	// Done holds the final child orders of every completed annealed
	// level, topmost first: Done[k][ci] is cluster ci's order at
	// annealed level k (level indices as in ProgressEvent.Level).
	Done [][][]int
	// Level is the in-progress annealed level index; always equal to
	// len(Done).
	Level int
	// Iter is the number of completed iterations at that level; the
	// schedule position (V_DD, nLSB, write-back epoch) is derived from
	// it.
	Iter int
	// Orders holds the in-progress level's current child orders.
	Orders [][]int
	// Stats are the counters accumulated up to the snapshot point
	// (completed levels in full, the in-progress level up to Iter).
	Stats Stats
	// Flush marks a snapshot written because the context was cancelled,
	// rather than at a write-back epoch boundary. It does not affect
	// resume semantics; front ends use it to bypass cadence filtering so
	// an interrupted run always persists its latest state.
	Flush bool
}

// validateResume checks the snapshot's structure against the hierarchy
// and top order rebuilt from the instance. It rejects snapshots from a
// different instance, strategy or schedule with a field-specific
// diagnostic; per-cluster permutation checks happen during replay where
// the actual node sequence is known.
func validateResume(s *Snapshot, h *cluster.Hierarchy, topOrder []int, totalIters int) error {
	annealed := h.NumLevels() - 1
	if len(s.TopOrder) != len(topOrder) {
		return fmt.Errorf("clustered: resume: snapshot top level has %d nodes, instance has %d",
			len(s.TopOrder), len(topOrder))
	}
	for i := range topOrder {
		if s.TopOrder[i] != topOrder[i] {
			return fmt.Errorf("clustered: resume: snapshot top order diverges at position %d (%d != %d): wrong instance or solver version",
				i, s.TopOrder[i], topOrder[i])
		}
	}
	if s.Level != len(s.Done) {
		return fmt.Errorf("clustered: resume: Level %d != %d completed levels", s.Level, len(s.Done))
	}
	if s.Level < 0 || s.Level >= annealed {
		return fmt.Errorf("clustered: resume: Level %d out of range [0, %d)", s.Level, annealed)
	}
	if s.Iter < 0 || s.Iter >= totalIters {
		return fmt.Errorf("clustered: resume: Iter %d out of range [0, %d)", s.Iter, totalIters)
	}
	for k, orders := range s.Done {
		if want := len(h.Levels[annealed-k]); len(orders) != want {
			return fmt.Errorf("clustered: resume: completed level %d has %d clusters, hierarchy has %d",
				k, len(orders), want)
		}
	}
	if want := len(h.Levels[annealed-s.Level]); len(s.Orders) != want {
		return fmt.Errorf("clustered: resume: level %d has %d cluster orders, hierarchy has %d",
			s.Level, len(s.Orders), want)
	}
	if s.Stats.Levels != s.Level {
		return fmt.Errorf("clustered: resume: Stats.Levels %d != completed level count %d",
			s.Stats.Levels, s.Level)
	}
	if want := len(h.Levels[1]); s.Stats.BottomWindows != want {
		return fmt.Errorf("clustered: resume: Stats.BottomWindows %d != hierarchy's %d",
			s.Stats.BottomWindows, want)
	}
	return nil
}

// expandWithOrders replays one completed level: children in the
// snapshot's final order, clusters in cycle order — the same expansion
// annealLevel performs, with the same permutation validation.
func expandWithOrders(nodes []*cluster.Node, orders [][]int, level int) ([]*cluster.Node, error) {
	if len(orders) != len(nodes) {
		return nil, fmt.Errorf("level %d replay has %d orders for %d clusters", level, len(orders), len(nodes))
	}
	var out []*cluster.Node
	for ci, n := range nodes {
		if err := checkOrder(orders[ci], len(n.Children)); err != nil {
			return nil, fmt.Errorf("level %d cluster %d %w", level, ci, err)
		}
		for _, childIdx := range orders[ci] {
			out = append(out, n.Children[childIdx])
		}
	}
	return out, nil
}

// levelResume positions annealLevel inside a partially annealed level.
type levelResume struct {
	iter   int
	orders [][]int
}

// snapshotter assembles Snapshots during a solve. It lives on the solve
// goroutine; the hook is never called concurrently.
type snapshotter struct {
	hook     func(*Snapshot) error
	topOrder []int
	// done accumulates completed levels' final orders (deep copies, so
	// retained snapshots can share them safely).
	done  [][][]int
	stats *Stats
	ex    *executor
}

// snap folds the partial worker shards into stats (sums only, so the
// final totals are unchanged) and hands the hook a snapshot of the
// current iteration boundary.
func (sn *snapshotter) snap(state *levelState, level, iter int, flush bool) error {
	sn.ex.mergeShards(sn.stats)
	s := &Snapshot{
		TopOrder: append([]int(nil), sn.topOrder...),
		Done:     sn.done[:len(sn.done):len(sn.done)],
		Level:    level,
		Iter:     iter,
		Orders:   state.unpackOrders(),
		Stats:    *sn.stats,
		Flush:    flush,
	}
	if err := sn.hook(s); err != nil {
		return fmt.Errorf("clustered: checkpoint hook: %w", err)
	}
	return nil
}

// finishLevel records a completed level's final orders for the Done
// section of later snapshots.
func (sn *snapshotter) finishLevel(state *levelState) {
	sn.done = append(sn.done, state.unpackOrders())
}
