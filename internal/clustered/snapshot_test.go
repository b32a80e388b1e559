package clustered

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cimsa/internal/tsplib"
)

var errKill = errors.New("scripted kill")

func snapshotTestInstance(t *testing.T, n int) *tsplib.Instance {
	t.Helper()
	return tsplib.Generate("pcb-ckpt", n, tsplib.StyleForName("pcb-ckpt"), 99)
}

// killAfter runs a solve whose checkpoint hook aborts (like a crash,
// with no flush) after `writes` snapshots, returning the last snapshot
// persisted before the kill.
func killAfter(t *testing.T, in *tsplib.Instance, o Options, writes int) *Snapshot {
	t.Helper()
	var last *Snapshot
	count := 0
	o.Checkpoint = func(s *Snapshot) error {
		last = s
		count++
		if count >= writes {
			return errKill
		}
		return nil
	}
	_, err := Solve(in, o)
	if !errors.Is(err, errKill) {
		t.Fatalf("scripted kill surfaced as %v", err)
	}
	if last == nil {
		t.Fatal("kill ran but no snapshot was written")
	}
	return last
}

// resumeToEnd finishes a solve from a snapshot, still checkpointing (the
// hook must not perturb results).
func resumeToEnd(t *testing.T, in *tsplib.Instance, o Options, snap *Snapshot) Result {
	t.Helper()
	o.Resume = snap
	o.Checkpoint = func(*Snapshot) error { return nil }
	res, err := Solve(in, o)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	return res
}

// TestResumeBitIdentical is the subsystem's load-bearing invariant: a
// run killed at any epoch and resumed produces the same tour, length
// and Stats as one that never stopped — at every worker count, and even
// when the kill and the resume use different worker counts.
func TestResumeBitIdentical(t *testing.T) {
	in := snapshotTestInstance(t, 300)
	for _, mode := range []Mode{ModeNoisyCIM, ModeMetropolis} {
		base := Options{Seed: 7, Mode: mode, Workers: 1}
		want, err := Solve(in, base)
		if err != nil {
			t.Fatal(err)
		}
		// Kill points span the run: first epoch of the first level, deep
		// inside the schedule, and late levels.
		for _, writes := range []int{1, 3, 9, 17} {
			for _, killW := range []int{1, 4} {
				for _, resumeW := range []int{1, 4} {
					killOpts := base
					killOpts.Workers = killW
					snap := killAfter(t, in, killOpts, writes)
					resOpts := base
					resOpts.Workers = resumeW
					got := resumeToEnd(t, in, resOpts, snap)
					if !reflect.DeepEqual(got.Tour, want.Tour) || got.Length != want.Length {
						t.Fatalf("mode %v kill@%d w%d->w%d: resumed tour differs (len %v vs %v)",
							mode, writes, killW, resumeW, got.Length, want.Length)
					}
					if got.Stats != want.Stats {
						t.Fatalf("mode %v kill@%d w%d->w%d: stats differ:\n got %+v\nwant %+v",
							mode, writes, killW, resumeW, got.Stats, want.Stats)
					}
				}
			}
		}
	}
}

// TestResumeFromFlushBitIdentical cancels mid-epoch (the flush path:
// cancellation with a checkpoint hook lands on an iteration boundary,
// not an epoch boundary) and checks the flushed snapshot resumes
// bit-identically.
func TestResumeFromFlushBitIdentical(t *testing.T) {
	in := snapshotTestInstance(t, 300)
	base := Options{Seed: 3}
	want, err := Solve(in, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, cancelAt := range []int{1, 5, 12} {
		var flushed *Snapshot
		ctx, cancel := context.WithCancel(context.Background())
		o := base
		events := 0
		o.Progress = func(ProgressEvent) {
			events++
			if events == cancelAt {
				cancel()
			}
		}
		o.Checkpoint = func(s *Snapshot) error {
			if s.Flush {
				flushed = s
			}
			return nil
		}
		_, err := SolveContext(ctx, in, o)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel@%d: got %v", cancelAt, err)
		}
		if flushed == nil {
			t.Fatalf("cancel@%d: no flush snapshot written", cancelAt)
		}
		if flushed.Iter%paperEpochIters() == 0 && flushed.Iter != 0 {
			// Progress fires right after an epoch refresh, so the next
			// iteration boundary is mid-epoch — the interesting case.
			t.Logf("cancel@%d flushed at an epoch boundary (iter %d)", cancelAt, flushed.Iter)
		}
		got := resumeToEnd(t, in, base, flushed)
		if !reflect.DeepEqual(got.Tour, want.Tour) || got.Stats != want.Stats {
			t.Fatalf("cancel@%d: flush-resume differs", cancelAt)
		}
	}
}

// paperEpochIters returns the default schedule's epoch length.
func paperEpochIters() int { return Options{}.withDefaults().Schedule.EpochIters }

// TestResumeChainedKills survives repeated kill/resume cycles — each
// resume is itself killed again — and still converges bit-identically.
func TestResumeChainedKills(t *testing.T) {
	in := snapshotTestInstance(t, 240)
	base := Options{Seed: 11, Workers: 2}
	want, err := Solve(in, base)
	if err != nil {
		t.Fatal(err)
	}
	var snap *Snapshot
	for attempt := 0; attempt < 4; attempt++ {
		o := base
		o.Resume = snap
		count := 0
		o.Checkpoint = func(s *Snapshot) error {
			snap = s
			count++
			if count >= 3 {
				return errKill
			}
			return nil
		}
		if _, err := Solve(in, o); !errors.Is(err, errKill) {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
	}
	got := resumeToEnd(t, in, base, snap)
	if !reflect.DeepEqual(got.Tour, want.Tour) || got.Stats != want.Stats {
		t.Fatal("chained kill/resume diverged from the uninterrupted run")
	}
}

// TestResumeRejectsMismatches: structurally broken or wrong-instance
// snapshots must fail loudly, never silently anneal.
func TestResumeRejectsMismatches(t *testing.T) {
	in := snapshotTestInstance(t, 300)
	o := Options{Seed: 7}
	snap := killAfter(t, in, o, 6)

	tamper := func(name string, f func(s *Snapshot)) {
		t.Helper()
		cp := *snap
		// Deep-copy the slices the tamper functions touch.
		cp.TopOrder = append([]int(nil), snap.TopOrder...)
		cp.Orders = make([][]int, len(snap.Orders))
		for i := range snap.Orders {
			cp.Orders[i] = append([]int(nil), snap.Orders[i]...)
		}
		cp.Done = make([][][]int, len(snap.Done))
		for k := range snap.Done {
			cp.Done[k] = make([][]int, len(snap.Done[k]))
			for i := range snap.Done[k] {
				cp.Done[k][i] = append([]int(nil), snap.Done[k][i]...)
			}
		}
		f(&cp)
		ro := o
		ro.Resume = &cp
		if _, err := Solve(in, ro); err == nil {
			t.Errorf("%s: resume accepted a corrupt snapshot", name)
		}
	}

	tamper("top-order-swap", func(s *Snapshot) {
		s.TopOrder[0], s.TopOrder[1] = s.TopOrder[1], s.TopOrder[0]
	})
	tamper("level-out-of-range", func(s *Snapshot) { s.Level = 99 })
	tamper("level-done-mismatch", func(s *Snapshot) { s.Level++ })
	tamper("iter-out-of-range", func(s *Snapshot) { s.Iter = 1 << 20 })
	tamper("negative-iter", func(s *Snapshot) { s.Iter = -1 })
	tamper("stats-levels", func(s *Snapshot) { s.Stats.Levels++ })
	tamper("stats-windows", func(s *Snapshot) { s.Stats.BottomWindows++ })
	tamper("order-not-permutation", func(s *Snapshot) {
		for _, ord := range s.Orders {
			if len(ord) >= 2 {
				ord[0] = ord[1]
				return
			}
		}
	})
	if len(snap.Done) > 0 {
		tamper("done-not-permutation", func(s *Snapshot) {
			for _, ord := range s.Done[0] {
				if len(ord) >= 2 {
					ord[0] = ord[1]
					return
				}
			}
		})
	}

	// A snapshot from a different instance must be rejected.
	other := tsplib.Generate("rl-other", 420, tsplib.StyleForName("rl-other"), 5)
	ro := o
	ro.Resume = snap
	if _, err := Solve(other, ro); err == nil {
		t.Error("resume accepted a snapshot from a different instance")
	}
}
