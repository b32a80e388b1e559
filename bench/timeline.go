package main

import (
	"fmt"
	"time"

	"cimsa"
)

// mark is one solver progress event and when the Progress hook saw it.
type mark struct {
	at time.Time
	ev cimsa.ProgressEvent
}

// timeline splits one clustered solve at its progress events. The solver
// emits an event after each write-back epoch's refresh (iter 0, 50, ...)
// and one when a level ends (Iter == Iters), so:
//
//   - pre_anneal runs from the call until the first event: cluster.Build,
//     the exact top-level solve, and the first level's window build and
//     first refresh;
//   - a level anneals from its iter-0 event to its end event: sweeps and
//     refresh epochs;
//   - the gap from one level's end event to the next level's iter-0 event
//     is the next level's setup: expansion, window build, first refresh;
//   - tail runs from the last event until the call returns: tour
//     assembly, validation and the PPA report.
//
// The parts tile [start, end] exactly.
type timeline struct {
	start, end time.Time
	levels     []levelMarks
	// leafEpochs are the gaps between consecutive events of the deepest
	// level: one write-back epoch each.
	leafEpochs []time.Duration
}

type levelMarks struct{ first, last time.Time }

func newTimeline(start, end time.Time, marks []mark) (timeline, error) {
	if len(marks) == 0 {
		return timeline{}, fmt.Errorf("solve emitted no progress events")
	}
	n := marks[0].ev.Levels
	tl := timeline{start: start, end: end, levels: make([]levelMarks, n)}
	var prevLeaf time.Time
	for _, m := range marks {
		e := m.ev
		if e.Restart != 0 || e.Level < 0 || e.Level >= n {
			return timeline{}, fmt.Errorf("unexpected progress event %+v", e)
		}
		if e.Iter == 0 {
			tl.levels[e.Level].first = m.at
		}
		if e.Iter == e.Iters {
			tl.levels[e.Level].last = m.at
		}
		if e.Level == n-1 {
			if !prevLeaf.IsZero() {
				tl.leafEpochs = append(tl.leafEpochs, m.at.Sub(prevLeaf))
			}
			prevLeaf = m.at
		}
	}
	for k, lv := range tl.levels {
		if lv.first.IsZero() || lv.last.IsZero() {
			return timeline{}, fmt.Errorf("level %d lacks its first or last progress event", k)
		}
	}
	return tl, nil
}

func (tl timeline) preAnneal() time.Duration { return tl.levels[0].first.Sub(tl.start) }

func (tl timeline) tail() time.Duration { return tl.end.Sub(tl.levels[len(tl.levels)-1].last) }

func (tl timeline) levelSetup() time.Duration {
	var d time.Duration
	for k := 1; k < len(tl.levels); k++ {
		d += tl.levels[k].first.Sub(tl.levels[k-1].last)
	}
	return d
}

func (tl timeline) anneal() time.Duration {
	var d time.Duration
	for _, lv := range tl.levels {
		d += lv.last.Sub(lv.first)
	}
	return d
}

// addSpans records the timeline's parts as children of parent.
func (tl timeline) addSpans(tr *tracer, trace string, parent int) {
	tr.add(trace, parent, "pre_anneal", tl.start, tl.levels[0].first)
	for k, lv := range tl.levels {
		if k > 0 {
			tr.add(trace, parent, fmt.Sprintf("level[%d].setup", k), tl.levels[k-1].last, lv.first)
		}
		tr.add(trace, parent, fmt.Sprintf("level[%d].anneal", k), lv.first, lv.last)
	}
	tr.add(trace, parent, "tail", tl.levels[len(tl.levels)-1].last, tl.end)
}

// solveLayers gathers per-layer numbers over a workload's clustered
// solves; set reports the medians under their clustered.* names.
type solveLayers struct {
	pre, setup, anneal, tail, leafEpoch, proposalRate []float64
}

func (s *solveLayers) add(tl timeline, proposed int64) {
	s.pre = append(s.pre, ms(tl.preAnneal()))
	s.setup = append(s.setup, ms(tl.levelSetup()))
	s.anneal = append(s.anneal, ms(tl.anneal()))
	s.tail = append(s.tail, ms(tl.tail()))
	for _, d := range tl.leafEpochs {
		s.leafEpoch = append(s.leafEpoch, ms(d))
	}
	s.proposalRate = append(s.proposalRate, float64(proposed)/tl.anneal().Seconds())
}

func (s *solveLayers) set(r *run) {
	if len(s.pre) == 0 {
		return
	}
	r.set("clustered.pre_anneal_ms", median(s.pre))
	r.set("clustered.level_setup_ms", median(s.setup))
	r.set("clustered.anneal_ms", median(s.anneal))
	r.set("clustered.tail_ms", median(s.tail))
	r.set("clustered.leaf_epoch_ms.p50", median(s.leafEpoch))
	r.set("clustered.proposals_per_s", median(s.proposalRate))
}

// setSolverCounts reports the annealer's work counters, averaged over
// the given solves' reports (identical reports give exact counts).
func setSolverCounts(r *run, reps []*cimsa.Report) {
	var proposed, accepted, writes, cycles, bits, levels []float64
	for _, rep := range reps {
		s := rep.Solver
		proposed = append(proposed, float64(s.Proposed))
		accepted = append(accepted, float64(s.Accepted)/float64(s.Proposed))
		writes = append(writes, float64(s.WeightWrites))
		cycles = append(cycles, float64(s.Cycles))
		bits = append(bits, float64(s.BoundaryTransferBits))
		levels = append(levels, float64(s.Levels))
	}
	r.set("clustered.proposed", mean(proposed))
	r.set("clustered.accept_ratio", mean(accepted))
	r.set("clustered.weight_writes", mean(writes))
	r.set("clustered.cycles", mean(cycles))
	r.set("clustered.boundary_bits", mean(bits))
	r.set("clustered.levels", mean(levels))
}
