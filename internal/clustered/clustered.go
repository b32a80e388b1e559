// Package clustered implements the paper's annealer: hierarchical
// clustering solves input sparsity, compact CIM weight windows solve
// weight sparsity, non-adjacent clusters update in parallel (chromatic
// Gibbs), and the randomness that drives annealing comes from noisy
// SRAM weight bits under the (V_DD, #LSB) schedule.
//
// The solver proceeds top-down (Fig. 4): the order of the few top-level
// super-clusters is solved exactly, then every level below anneals the
// order of each cluster's children given the frozen neighbouring
// clusters, until the leaf level yields the city tour.
package clustered

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"cimsa/internal/cim"
	"cimsa/internal/cluster"
	"cimsa/internal/device"
	"cimsa/internal/geom"
	"cimsa/internal/heuristics"
	"cimsa/internal/noise"
	"cimsa/internal/tour"
	"cimsa/internal/tsplib"
)

// Mode selects the annealer's randomness source.
type Mode int

const (
	// ModeNoisyCIM is the paper's design: greedy accept on energies
	// computed from noisy SRAM weights. The noise level is set by the
	// (V_DD, #LSB) schedule and decays to zero, annealing the system.
	ModeNoisyCIM Mode = iota
	// ModeMetropolis is the classical software baseline: clean weights,
	// temperature-driven Metropolis acceptance.
	ModeMetropolis
	// ModeGreedy is the no-noise ablation: clean weights, accept only
	// strict improvements. Converges fast but cannot escape local minima.
	ModeGreedy
	// ModeNoisySpins is the ablation of [4]'s approach: the noise is
	// applied to the spin inputs instead of the weights. Because the
	// error pattern is spatial and the same spins are read every cycle,
	// the trajectory is deterministic and annealing degrades.
	ModeNoisySpins
)

// ParseMode converts a mode name ("noisy-cim", "metropolis", "greedy",
// "noisy-spins") back to a Mode.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{ModeNoisyCIM, ModeMetropolis, ModeGreedy, ModeNoisySpins} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("clustered: unknown mode %q", s)
}

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNoisyCIM:
		return "noisy-cim"
	case ModeMetropolis:
		return "metropolis"
	case ModeGreedy:
		return "greedy"
	case ModeNoisySpins:
		return "noisy-spins"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// settles reports whether the mode accepts a swap iff its ΔH < 0 on the
// stored order, so that a window whose every swap is memoised uphill can
// be skipped until its inputs change. Metropolis may accept uphill, and
// noisy-spins keys the memo on an input that each iteration's fabric
// pass corrupts afresh.
func (m Mode) settles() bool { return m == ModeNoisyCIM || m == ModeGreedy }

// Options configures a solve.
type Options struct {
	// Strategy is the clustering policy; defaults to SemiFlex p=3 (the
	// paper's best PPA/quality trade-off).
	Strategy cluster.Strategy
	// Schedule is the noise/iteration schedule; defaults to the paper's
	// 400-iteration, 300→580 mV schedule.
	Schedule noise.Schedule
	// Fabric is the noise substrate the annealer reads weights through;
	// defaults to the paper's SRAM fabric seeded from Seed over the
	// committed 16 nm error model.
	Fabric noise.Fabric
	// Mode selects the randomness source; defaults to ModeNoisyCIM.
	Mode Mode
	// Seed drives swap proposals (and the fabric if none is given).
	Seed uint64
	// RecordTrace captures the level objective (sum of intra-cluster
	// paths and inter-cluster link edges, in centroid-distance units)
	// after every iteration of every annealed level.
	RecordTrace bool
	// Workers sizes the persistent worker pool that updates the clusters
	// of each chromatic phase at once, mirroring the hardware's
	// all-windows-at-once update: 0 resolves it from the instance size
	// and GOMAXPROCS (sequential for small instances, pooled for
	// paper-scale ones), 1 forces fully inline execution and n > 1 fixes
	// an n-worker pool. Whatever the pool size, each phase only engages
	// as many workers as it has cursor grabs for, so upper hierarchy
	// levels run inline even on a wide pool. Every value produces
	// bit-identical results: proposals and accept randomness are derived
	// from (seed, level, iteration, cluster) counters, not from a shared
	// stream.
	Workers int
	// WeightBits truncates stored weights to this many significant bits
	// (1-8); 0 or 8 keeps full precision. Precision ablation for the
	// paper's 8-bit design choice.
	WeightBits int
	// Progress, when non-nil, receives a ProgressEvent at every
	// write-back epoch and once more when a level finishes. The hook is
	// called from the solve goroutine between iterations (never
	// concurrently) and only observes state, so setting it cannot change
	// the result; it must return quickly or it stalls the solve.
	Progress func(ProgressEvent)
	// Checkpoint, when non-nil, receives a Snapshot at every write-back
	// epoch boundary (before that epoch's window refresh) and once more,
	// with Snapshot.Flush set, when the context is cancelled. The hook
	// runs on the solve goroutine; returning an error aborts the solve
	// with that error. Snapshots may be retained after the hook returns.
	//
	// With a Checkpoint hook installed, cancellation is observed at
	// iteration boundaries instead of between chromatic phases (at most
	// one iteration later), so the final flush always lands at a point
	// resume can reproduce exactly.
	Checkpoint func(*Snapshot) error
	// Resume continues a solve from a Snapshot previously produced by a
	// Checkpoint hook with the same instance, strategy, schedule, mode
	// and seed. The snapshot is validated against the hierarchy rebuilt
	// from the instance and rejected on any mismatch; a resumed run is
	// bit-identical to one that never stopped.
	Resume *Snapshot
}

// ProgressEvent describes how far a solve has advanced. Events map onto
// the paper's execution structure: one event per (level, write-back
// epoch) pair — the granularity at which the hardware reloads its
// weight windows — plus a final event per level with Iter == Iters.
type ProgressEvent struct {
	// Restart is the replica index for multi-restart solves (filled by
	// the cimsa facade; always 0 for a direct clustered.Solve).
	Restart int `json:"restart"`
	// Level is the annealed level index, 0 = the first (topmost)
	// annealed level; Levels is the total annealed level count.
	Level  int `json:"level"`
	Levels int `json:"levels"`
	// Iter is the number of completed iterations at this level; Iters is
	// the level's total (Iter == Iters marks the level done).
	Iter  int `json:"iter"`
	Iters int `json:"iters"`
	// Clusters is the number of cluster windows at this level.
	Clusters int `json:"clusters"`
	// Objective is the level's current true objective (closed path over
	// all children in centroid-distance units, noise-free).
	Objective float64 `json:"objective"`
}

func (o Options) withDefaults() Options {
	if o.Strategy == (cluster.Strategy{}) {
		o.Strategy = cluster.Strategy{Kind: cluster.SemiFlex, P: 3}
	}
	if o.Schedule == (noise.Schedule{}) {
		o.Schedule = noise.PaperSchedule()
	}
	if o.Fabric == nil {
		o.Fabric = noise.NewFabric(o.Seed ^ 0xfab)
	}
	return o
}

// Stats reports what the solve did, in units the PPA model consumes.
type Stats struct {
	// Levels is the number of annealed levels (hierarchy levels minus
	// the directly solved top).
	Levels int
	// BottomWindows is the cluster count at the leaf level: the number
	// of weight windows the hardware must provision.
	BottomWindows int
	// Iterations is the total update iterations summed over levels.
	Iterations int
	// Proposed counts swap proposals: every cluster of two or more
	// children proposes one swap per iteration, so it is the number of
	// cluster-cycles annealed. Accepted counts the swaps taken. Like
	// every other work counter they are int64: paper-scale instances with
	// restarts push proposal counts past 32-bit range, and the counters
	// round-trip through checkpoints as 64-bit fields.
	Proposed, Accepted int64
	// WriteBacks counts weight write-back epochs summed over windows.
	WriteBacks int64
	// Cycles is the modelled hardware cycle count: iterations per level
	// × cycles per iteration (all clusters of a phase update in
	// parallel, so cluster count does not appear).
	Cycles int64
	// WeightWrites counts 8-bit weight writes (window loads plus
	// write-back refreshes) for the energy model.
	WeightWrites int64
	// BoundaryTransferBits counts the bits crossing inter-array links
	// over the whole solve (Fig. 5e: p one-hot bits per boundary fetch
	// whenever a cluster's neighbour lives in a different array).
	BoundaryTransferBits int64
}

// Add accumulates another replica's work counters into s — the
// aggregation rule for multi-restart solves, where every counter that
// feeds the energy/PPA model must reflect the total work done, not the
// winning replica's share. BottomWindows is provisioning rather than
// work, so it takes the maximum.
func (s *Stats) Add(o Stats) {
	s.Levels += o.Levels
	s.Iterations += o.Iterations
	s.Proposed += o.Proposed
	s.Accepted += o.Accepted
	s.WriteBacks += o.WriteBacks
	s.Cycles += o.Cycles
	s.WeightWrites += o.WeightWrites
	s.BoundaryTransferBits += o.BoundaryTransferBits
	if o.BottomWindows > s.BottomWindows {
		s.BottomWindows = o.BottomWindows
	}
}

// Result is a finished solve.
type Result struct {
	Tour   tour.Tour
	Length float64
	Stats  Stats
	// LevelTraces, when requested, holds one objective-vs-iteration
	// series per annealed level, top level first.
	LevelTraces [][]float64
}

// Solve runs the clustered annealer on the instance.
func Solve(in *tsplib.Instance, opt Options) (Result, error) {
	return SolveContext(context.Background(), in, opt)
}

// SolveContext is Solve with cancellation: ctx is checked between
// chromatic phases and at write-back epochs, so cancellation is prompt
// even on 100k-city instances, and the partially annealed state is
// simply discarded. A run whose context is never cancelled is
// bit-identical to Solve — the checks consume no randomness.
func SolveContext(ctx context.Context, in *tsplib.Instance, opt Options) (Result, error) {
	o := opt.withDefaults()
	if err := o.Schedule.Validate(); err != nil {
		return Result{}, err
	}
	h, err := cluster.Build(in.Cities, o.Strategy)
	if err != nil {
		return Result{}, err
	}
	var stats Stats
	if h.NumLevels() > 1 {
		stats.BottomWindows = len(h.Levels[1])
	}

	// Solve the top level directly: it has at most TopThreshold elements.
	// An instance that small is a one-level hierarchy whose top is the
	// cities themselves, so the exact order is the tour and no level is
	// annealed.
	top := h.Top()
	order, err := solveTop(top, in.Metric)
	if err != nil {
		return Result{}, err
	}
	nodes := permuteNodes(top, order)
	annealed := h.NumLevels() - 1

	var sn *snapshotter
	if o.Checkpoint != nil {
		sn = &snapshotter{hook: o.Checkpoint, topOrder: order, stats: &stats}
	}
	startLevel := 0
	var resume *levelResume
	if o.Resume != nil {
		if err := validateResume(o.Resume, h, order, o.Schedule.TotalIters()); err != nil {
			return Result{}, err
		}
		// Replay the completed levels' final orders to rebuild the node
		// sequence at the in-progress level; each replay re-validates the
		// orders against the actual clusters.
		for k, orders := range o.Resume.Done {
			nodes, err = expandWithOrders(nodes, orders, annealed-k)
			if err != nil {
				return Result{}, fmt.Errorf("clustered: resume: %w", err)
			}
			if sn != nil {
				// Seed the snapshotter's history with copies, so later
				// snapshots do not alias the caller's resume snapshot.
				cp := make([][]int, len(orders))
				for ci := range orders {
					cp[ci] = append([]int(nil), orders[ci]...)
				}
				sn.done = append(sn.done, cp)
			}
		}
		stats = o.Resume.Stats
		startLevel = o.Resume.Level
		resume = &levelResume{iter: o.Resume.Iter, orders: o.Resume.Orders}
	}

	// Anneal each level below the top on one persistent worker pool:
	// workers outlive levels, phases and iterations, so the per-phase
	// cost is a dispatch, not a goroutine spawn.
	ex := newExecutor(o, in.N())
	defer ex.close()
	if sn != nil {
		sn.ex = ex
	}
	var traces [][]float64
	for li := annealed - startLevel; li >= 1; li-- {
		var trace []float64
		lr := resume
		resume = nil
		nodes, trace, err = annealLevel(ctx, nodes, li, annealed-li, annealed, o, &stats, ex, sn, lr)
		if err != nil {
			return Result{}, err
		}
		if o.RecordTrace {
			traces = append(traces, trace)
		}
	}

	// nodes is now the ordered leaf level.
	t := make(tour.Tour, len(nodes))
	for i, n := range nodes {
		if !n.IsLeaf() {
			return Result{}, fmt.Errorf("clustered: expansion ended on non-leaf nodes")
		}
		t[i] = n.City
	}
	if err := t.Validate(in.N()); err != nil {
		return Result{}, fmt.Errorf("clustered: produced invalid tour: %w", err)
	}
	return Result{Tour: t, Length: t.Length(in), Stats: stats, LevelTraces: traces}, nil
}

// solveTop orders the top-level nodes by their centroids with the exact
// solver (the level is at most TopThreshold nodes by construction).
func solveTop(nodes []*cluster.Node, metric geom.Metric) ([]int, error) {
	if len(nodes) < 3 {
		idx := make([]int, len(nodes))
		for i := range idx {
			idx[i] = i
		}
		return idx, nil
	}
	pts := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		pts[i] = n.Centroid
	}
	sub := &tsplib.Instance{Name: "top", Metric: geom.Exact, Cities: pts}
	t, _, err := heuristics.Exact(sub)
	if err != nil {
		return nil, fmt.Errorf("clustered: top level: %w", err)
	}
	return t, nil
}

func permuteNodes(nodes []*cluster.Node, order []int) []*cluster.Node {
	out := make([]*cluster.Node, len(order))
	for i, oi := range order {
		out[i] = nodes[oi]
	}
	return out
}

// levelState holds the annealing state of one hierarchy level as flat
// per-cluster arrays: the cyclic sequence of clusters, each cluster's
// child order packed into one word (slot 0 highest, as the swap memo
// keys it) and its child count, plus the level's weight windows. A
// proposal that hits the memo reads sizes, three adjacent order words
// and one memo word, and follows no pointer.
type levelState struct {
	nodes []*cluster.Node
	// orders[ci] is cluster ci's order: slot → index within
	// nodes[ci].Children.
	orders []cim.Order
	// sizes[ci] is cluster ci's child count (at most 8).
	sizes []uint8
	chip  *cim.Level
}

// newLevelState lays out a level's clusters, each in identity order.
func newLevelState(nodes []*cluster.Node) *levelState {
	st := &levelState{nodes: nodes, orders: make([]cim.Order, len(nodes)), sizes: make([]uint8, len(nodes))}
	for ci, n := range nodes {
		p := len(n.Children)
		st.sizes[ci] = uint8(p)
		st.orders[ci] = cim.IdentityOrder(p)
	}
	return st
}

// order unpacks cluster ci's order onto dst.
func (st *levelState) order(ci int, dst []int) []int {
	return st.orders[ci].Unpack(int(st.sizes[ci]), dst)
}

// unpackOrders returns every cluster's order as a fresh slice.
func (st *levelState) unpackOrders() [][]int {
	out := make([][]int, len(st.orders))
	for ci := range st.orders {
		out[ci] = st.order(ci, nil)
	}
	return out
}

// annealLevel orders the children of each node and returns the expanded
// child sequence plus (when requested) the objective trace. levelIdx
// and levels position the level among the annealed levels (top-down)
// for progress reporting; ctx aborts the level between phases and at
// write-back epochs. sn, when non-nil, emits a Snapshot at every epoch
// boundary (and a flush on cancellation); resume, when non-nil,
// restarts the level mid-schedule from a snapshot's orders.
func annealLevel(ctx context.Context, nodes []*cluster.Node, level, levelIdx, levels int, o Options, stats *Stats, ex *executor, sn *snapshotter, resume *levelResume) ([]*cluster.Node, []float64, error) {
	nc := len(nodes)
	state := newLevelState(nodes)
	if resume != nil {
		// Adopt the snapshot's in-progress orders, held to the same
		// permutation invariant the expansion enforces.
		if len(resume.orders) != nc {
			return nil, nil, fmt.Errorf("clustered: resume: level %d has %d orders for %d clusters",
				level, len(resume.orders), nc)
		}
		for ci, order := range resume.orders {
			if err := checkOrder(order, int(state.sizes[ci])); err != nil {
				return nil, nil, fmt.Errorf("clustered: resume: level %d cluster %d %w", level, ci, err)
			}
			state.orders[ci] = cim.PackOrder(order)
		}
	}
	ex.buildLevel(state, &o)
	if resume == nil {
		// On resume the loads were already counted when the level first
		// ran, and the restored Stats carry them.
		stats.WeightWrites += int64(state.chip.Cells())
	}
	job := &ex.job
	iters := o.Schedule.TotalIters()
	temp := metropolisTemp(state)
	transfersPerIter := boundaryTransfersPerIter(state)
	// Every cluster of two or more children proposes one swap per
	// iteration; the phases hold exactly those clusters.
	proposalsPerIter := int64(0)
	for _, st := range ex.plan.steps {
		proposalsPerIter += int64(st.items)
	}
	// emit reports progress at write-back-epoch granularity; the hook
	// only observes state, so results are identical with or without it.
	emit := func(iter int) {
		if o.Progress != nil {
			o.Progress(ProgressEvent{
				Level: levelIdx, Levels: levels,
				Iter: iter, Iters: iters, Clusters: nc,
				Objective: ex.levelObjective(state),
			})
		}
	}
	var trace []float64
	startIter := 0
	if resume != nil {
		startIter = resume.iter
		if startIter%o.Schedule.EpochIters != 0 {
			// The snapshot was taken mid-epoch (a cancellation flush).
			// Re-enter the epoch: the write-back is stateless, so this
			// lands bit-identically, and the restored Stats already
			// count it.
			state.chip.WriteBack(writeBackEpoch(&o, startIter-startIter%o.Schedule.EpochIters))
		}
	}
	for iter := startIter; iter < iters; iter++ {
		if err := ctx.Err(); err != nil {
			cancelErr := fmt.Errorf("clustered: level %d canceled: %w", level, err)
			if sn != nil {
				// Persist the exact iteration boundary before giving up,
				// so an interrupted run resumes from here.
				if ferr := sn.snap(state, levelIdx, iter, true); ferr != nil {
					return nil, nil, fmt.Errorf("%w (checkpoint flush also failed: %v)", cancelErr, ferr)
				}
			}
			return nil, nil, cancelErr
		}
		if iter%o.Schedule.EpochIters == 0 {
			if sn != nil {
				// Snapshot before the write-back: on resume the loop
				// re-runs it (and re-counts it), matching the
				// uninterrupted accounting.
				if err := sn.snap(state, levelIdx, iter, false); err != nil {
					return nil, nil, err
				}
			}
			// Write-back + pseudo-read epoch: every window of the level
			// shares it, and every window — singletons too, which exist
			// on the chip — is rewritten.
			state.chip.WriteBack(writeBackEpoch(&o, iter))
			stats.WriteBacks += int64(nc)
			stats.WeightWrites += int64(state.chip.Cells())
			// Epoch boundary: fold the freshly measured per-item costs
			// back into the plan's grab/fan sizing (never into results).
			ex.retune()
			emit(iter)
		}
		tFrac := 1 - float64(iter)/float64(iters)
		job.kind = jobUpdatePhase
		job.key = iterKey(o.Seed, level, iter)
		job.temp = temp * tFrac
		if o.Mode == ModeNoisySpins {
			vdd, _ := o.Schedule.At(iter)
			job.epoch = o.Fabric.At(vdd)
		}
		for si := range ex.plan.steps {
			if sn == nil {
				// With checkpointing enabled, cancellation waits for the
				// next iteration boundary (where a flush is resumable)
				// instead of aborting between phases.
				if err := ctx.Err(); err != nil {
					return nil, nil, fmt.Errorf("clustered: level %d canceled: %w", level, err)
				}
			}
			st := &ex.plan.steps[si]
			job.phase = st.phase
			ex.runStep(job, st)
		}
		stats.Proposed += proposalsPerIter
		stats.Cycles += int64(cim.CyclesPerIteration)
		stats.BoundaryTransferBits += transfersPerIter
		if o.RecordTrace {
			trace = append(trace, ex.levelObjective(state))
		}
	}
	ex.mergeShards(stats)
	stats.Levels++
	stats.Iterations += iters
	emit(iters)

	// Expand: children in final order, clusters in cycle order. Every
	// cluster's order must still be a permutation of its children — the
	// swap updates preserve this by construction, so a violation means a
	// software fault (a race or a corrupted update), exactly what the
	// fault-injection harness exists to rule out. The check is O(n) per
	// level, noise-free, and cheap next to the 400-iteration anneal.
	if err := validateClusterOrders(state, level); err != nil {
		return nil, nil, err
	}
	if sn != nil {
		sn.finishLevel(state)
	}
	total := 0
	for _, p := range state.sizes {
		total += int(p)
	}
	out := make([]*cluster.Node, 0, total)
	var buf [8]int
	for ci, n := range state.nodes {
		for _, childIdx := range state.order(ci, buf[:0]) {
			out = append(out, n.Children[childIdx])
		}
	}
	return out, trace, nil
}

// buildLevel points the executor's job at the level and builds the
// level's weight windows against the initial neighbour geometry, all
// carved from one level's slabs and loaded on the pool. It also fuses
// the level's dispatch plan once: the window loads, chromatic phases,
// grab sizes and fan-outs are all resolved here (and retuned at
// write-back epochs), so the iteration loop does no dispatch setup
// work.
func (ex *executor) buildLevel(state *levelState, o *Options) {
	nc := len(state.sizes)
	shapes := make([]cim.Shape, nc)
	for ci := range shapes {
		shapes[ci] = cim.Shape{
			P:     int(state.sizes[ci]),
			PPrev: int(state.sizes[(ci-1+nc)%nc]),
			PNext: int(state.sizes[(ci+1)%nc]),
		}
	}
	state.chip = cim.NewLevel(shapes)
	state.chip.Settles = o.Mode.settles()
	ex.job.state = state
	ex.job.opt = o
	ex.planLevel(state.sizes)
	ex.job.kind = jobLoadWindows
	ex.runStep(&ex.job, &ex.plan.load)
	state.chip.MaskWeights(o.WeightBits)
}

// writeBackEpoch returns the fabric pass and noisy-LSB count of the
// write-back epoch that starts at iteration iter. Only the noisy-CIM
// mode reads its weights through the schedule's reduced supply; every
// other mode refreshes clean (the spin-noise ablation corrupts inputs
// at proposal time instead). The device model owns the supply-voltage
// truth: refreshing at its nominal V_DD (rather than a copied literal)
// keeps the refresh clean even if the technology point changes.
func writeBackEpoch(o *Options, iter int) (noise.Epoch, int) {
	vdd, nLSB := device.NominalVDD, 0
	if o.Mode == ModeNoisyCIM {
		vdd, nLSB = o.Schedule.At(iter)
	}
	return o.Fabric.At(vdd), nLSB
}

// checkOrder reports an order that is not a permutation of [0, p).
func checkOrder(order []int, p int) error {
	if len(order) != p {
		return fmt.Errorf("order has %d slots for %d children", len(order), p)
	}
	var seen [8]bool
	for _, childIdx := range order {
		if childIdx < 0 || childIdx >= p || seen[childIdx] {
			return fmt.Errorf("order is not a permutation: %v", order)
		}
		seen[childIdx] = true
	}
	return nil
}

// validateClusterOrders asserts each cluster's packed order is a
// permutation of [0, len(children)) — with no stray bits above its
// slots — before the level is expanded.
func validateClusterOrders(state *levelState, level int) error {
	var buf [8]int
	for ci, o := range state.orders {
		p := int(state.sizes[ci])
		if o>>(3*p) != 0 {
			return fmt.Errorf("clustered: level %d cluster %d order %#x has bits beyond its %d slots", level, ci, uint32(o), p)
		}
		if err := checkOrder(o.Unpack(p, buf[:0]), p); err != nil {
			return fmt.Errorf("clustered: level %d cluster %d %w", level, ci, err)
		}
	}
	return nil
}

// boundaryTransfersPerIter counts the bits crossing inter-array links in
// one update iteration. Traffic is a static property of the window
// layout (Fig. 5e): each cluster whose neighbour lives in another array
// pulls the neighbour's boundary element over the link every iteration,
// one-hot encoded over that neighbour's *actual* element count —
// remainder clusters smaller than pMax transfer fewer bits.
func boundaryTransfersPerIter(state *levelState) int64 {
	nc := len(state.sizes)
	transfers := int64(0)
	for ci := range state.sizes {
		prev := (ci - 1 + nc) % nc
		next := (ci + 1) % nc
		if cim.ArrayOf(prev) != cim.ArrayOf(ci) {
			transfers += int64(cim.BoundaryTransferBits(int(state.sizes[prev])))
		}
		if cim.ArrayOf(next) != cim.ArrayOf(ci) {
			transfers += int64(cim.BoundaryTransferBits(int(state.sizes[next])))
		}
	}
	return transfers
}

// metropolisTemp picks the classical-mode starting temperature: the mean
// nonzero quantization full-scale across windows is a robust proxy for
// the local edge length scale.
func metropolisTemp(state *levelState) float64 {
	var sum float64
	var count int
	for i := range state.chip.Windows {
		if s := state.chip.Windows[i].Quant.Scale; s > 0 {
			sum += s * 255
			count++
		}
	}
	if count == 0 {
		return 1
	}
	return sum / float64(count) / 4
}

// The swap proposal and acceptance uniform of one (level, iteration,
// cluster) are derived from the seed by a counter hash: the counters
// (seed, level, iter, cluster, stream) are folded one at a time into a
// SplitMix-style state, which the SplitMix64 finalizer then mixes.
// Counter-based derivation makes every cluster's randomness independent
// of execution order, so parallel and sequential runs are bit-identical.
// The fold is sequential, so the state after (seed, level, iter) is
// shared by every cluster of the iteration: iterKey computes it once per
// iteration, clusterKey folds in the cluster, and drawPass and
// acceptUniform fold in their stream.

// counterInit is the counter hash's initial state.
const counterInit = uint64(0x9e3779b97f4a7c15)

// counterFold folds one counter into a counter-hash state.
func counterFold(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>27
}

// counterFinish applies the SplitMix64 finalizer to a folded state.
func counterFinish(h uint64) uint64 {
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// iterKey is the counter-hash state after folding (seed, level, iter).
func iterKey(seed uint64, level, iter int) uint64 {
	return counterFold(counterFold(counterFold(counterInit, seed), uint64(level)), uint64(iter))
}

// clusterKey is the counter-hash state of cluster ci in the iteration
// whose iterKey is key.
func clusterKey(key uint64, ci int) uint64 { return counterFold(key, uint64(ci)) }

// remConsts[p-1] holds the direct-remainder constants of a cluster of
// p >= 3 children, for drawPass's slots: ci = ⌈2⁶⁴/p⌉ for slot i and
// cj = ⌈2⁶⁴/(p−1)⌉ for slot j.
var remConsts = func() (t [8]struct{ ci, cj uint64 }) {
	for k := 2; k < len(t); k++ {
		p := uint64(k + 1)
		t[k].ci = ^uint64(0)/p + 1
		t[k].cj = ^uint64(0)/(p-1) + 1
	}
	return t
}()

// remainder is a % d by direct computation with c = ⌈2⁶⁴/d⌉: exact for
// every a < 2⁴⁰ and d <= 8 (Lemire, Kaser and Kurz, "Faster remainder
// by direct computation", 2019: c·d lies within 2⁶⁴ + 2^(64−40)).
func remainder(a, c, d uint64) uint64 {
	hi, _ := bits.Mul64(c*a, d)
	return hi
}

// acceptUniform derives the Metropolis acceptance uniform in [0, 1)
// from a cluster's clusterKey hc. Only a Metropolis uphill move reads
// it, and no other draw depends on it, so the other modes skip it.
func acceptUniform(hc uint64) float64 {
	return float64(counterFinish(counterFold(hc, 1))>>11) / (1 << 53)
}

// drawBatch is how many clusters updatePhase draws before it decides
// them: the draws' buffer stays a few cache lines on the stack.
const drawBatch = 64

// draw is one cluster's drawn swap: slots i != j of cluster ci.
type draw struct {
	ci   int32
	i, j uint8
}

// drawPass draws the swap slots of every cluster of batch (at most
// drawBatch of them, each of 2 to 8 children) that is not settled into
// buf, in batch order, and returns how many it drew. A settled window's
// swap is a memo hit uphill whatever the slots, so it is rejected
// unseen and its hash is never computed.
//
// Every draw proposes: slot i is uniform over the cluster's p slots
// and slot j over the other p − 1. A two-child cluster's pair is (0, 1)
// and needs no hash. Otherwise, of the finished hash h of cluster ci's
// clusterKey, i = (h>>24) % p and j = (h mod 2²⁴) % (p−1), plus one if
// it is not below i. Both are Lemire's direct remainder over per-p
// constants, with no branch on the draw; h>>24 has 40 bits, so 64
// fraction bits give it exactly. The
// 24-bit remainder favours its smallest residues by at most one count
// in 2²⁴ / (p−1), a relative bias below 4·10⁻⁷. The hashes of a batch
// are independent, so they overlap in the pipeline.
func drawPass(state *levelState, batch []int, key uint64, buf *[drawBatch]draw) int {
	chip := state.chip
	n := 0
	for _, ci := range batch {
		if chip.Settled(ci) {
			continue
		}
		p := uint64(state.sizes[ci])
		if p == 2 {
			// n < drawBatch here; the mask only drops the bounds check.
			buf[n&(drawBatch-1)] = draw{ci: int32(ci), i: 0, j: 1}
			n++
			continue
		}
		rc := &remConsts[(p-1)&7]
		h := counterFinish(counterFold(clusterKey(key, ci), 0))
		i := remainder(h>>24, rc.ci, p)
		j := remainder(h&(1<<24-1), rc.cj, p-1)
		// j += 1 when j >= i: both are below 8, so j − i wraps negative
		// exactly when j < i.
		j += 1 - (j-i)>>63
		buf[n&(drawBatch-1)] = draw{ci: int32(ci), i: uint8(i), j: uint8(j)}
		n++
	}
	return n
}

// updatePhase proposes and (maybe) applies one swap for each cluster of
// phase, a run of one chromatic phase, in the iteration whose iterKey
// is key, and returns accepts with the index of every cluster whose
// swap it accepted appended. It is the worker pool's unit of work: it
// writes only the order words of the clusters of phase and reads only
// neighbours that are frozen for the current chromatic phase.
//
// Each batch of drawBatch clusters runs in two passes. drawPass draws
// the slot pair of every cluster whose window is not settled; the
// decision pass then probes the swap memo, accepts and swaps, draw by
// draw. A cluster's draw reads nothing another cluster of the phase
// writes, and only a cluster's own probe can settle its window, so the
// split leaves every result as a per-cluster loop would produce it.
//
// A settled window's neighbours' flags are not this pass's to clear,
// since clusters of the same phase share them; the caller clears them
// after the phase from the accepts log (executor.unsettle).
func updatePhase(state *levelState, phase []int, key uint64, o *Options, ep noise.Epoch, temp float64, accepts []int32) []int32 {
	var buf [drawBatch]draw
	chip := state.chip
	last := len(state.orders) - 1
	for len(phase) > 0 {
		batch := phase[:min(len(phase), drawBatch)]
		phase = phase[len(batch):]
		n := drawPass(state, batch, key, &buf)
		for _, d := range buf[:n] {
			ci := int(d.ci)
			i, j := int(d.i), int(d.j)
			p := int(state.sizes[ci])
			prev, next := ci-1, ci+1
			if prev < 0 {
				prev = last
			}
			if next > last {
				next = 0
			}
			order := state.orders[ci]
			in := order
			if o.Mode == ModeNoisySpins {
				in = corruptOrder(order, p, ep, ci)
			}
			// The four MACs of Fig. 5a, memoised per slot pair.
			delta := chip.SwapDelta(ci, in, state.orders[prev].Last(), state.orders[next].First(int(state.sizes[next])), i, j)
			if accept(state, ci, delta, o.Mode, key, temp) {
				state.orders[ci] = order.Swap(p, i, j)
				accepts = append(accepts, d.ci)
			}
		}
	}
	return accepts
}

// accept decides a swap of cluster ci with energy change delta per the
// mode, in the iteration whose iterKey is key.
func accept(state *levelState, ci, delta int, mode Mode, key uint64, temp float64) bool {
	switch mode {
	case ModeNoisyCIM, ModeNoisySpins, ModeGreedy:
		return delta < 0
	case ModeMetropolis:
		if delta < 0 {
			return true
		}
		if temp <= 0 {
			return false
		}
		deltaDist := float64(delta) * state.chip.Windows[ci].Quant.Scale
		return acceptUniform(clusterKey(key, ci)) < math.Exp(-deltaDist/temp)
	default:
		panic("clustered: unknown mode")
	}
}

// corruptOrder applies the spatial spin-noise ablation to cluster ci's
// p-slot order: each one-hot input bit is read through the fabric with
// a cell ID from the reserved spin-register namespace (disjoint from
// every weight-window cell at any cluster count), so the same spins see
// the same (fixed) errors every cycle — reproducing [4]'s
// deterministic-trace failure mode. The corrupted order is a new word;
// the stored one is untouched.
func corruptOrder(order cim.Order, p int, ep noise.Epoch, ci int) cim.Order {
	var out cim.Order
	for slot := 0; slot < p; slot++ {
		e := order.Elem(p, slot)
		if id := noise.SpinCellID(ci, slot); ep.ReadBit(id, 0) != 0 {
			// The spin register bit misreads: the slot appears to hold a
			// different (spatially fixed) element.
			e = int(id>>3) % p
		}
		out = out<<3 | cim.Order(e)
	}
	return out
}

// loadWindow loads cluster ci's weight window from the centroid
// distances of its own, its previous and its next cluster's children to
// its own children. It writes only window ci, so the pool loads a
// level's windows in parallel.
func loadWindow(state *levelState, ci int) {
	nc := len(state.nodes)
	own := state.nodes[ci].Children
	// Room for three blocks of up to 8×8 (cluster sizes are capped at 8);
	// append moves to the heap should a block ever be larger.
	var buf [3 * 8 * 8]float64
	dist := buf[:0]
	for _, nb := range [3]*cluster.Node{state.nodes[ci], state.nodes[(ci-1+nc)%nc], state.nodes[(ci+1)%nc]} {
		for _, cm := range nb.Children {
			for _, ck := range own {
				dist = append(dist, geom.Exact.Dist(cm.Centroid, ck.Centroid))
			}
		}
	}
	if err := state.chip.Load(ci, dist); err != nil {
		// Windows are built from validated clusters; failure is a bug.
		panic(fmt.Sprintf("clustered: window build: %v", err))
	}
}
