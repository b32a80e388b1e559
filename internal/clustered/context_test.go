package clustered

import (
	"context"
	"errors"
	"testing"

	"cimsa/internal/noise"
	"cimsa/internal/tsplib"
)

// An uncancelled SolveContext run is bit-identical to Solve at every
// worker count: the cancellation checks and the progress hook consume
// no randomness.
func TestSolveContextBitIdentical(t *testing.T) {
	in := tsplib.Generate("ctx-ident", 400, tsplib.StyleUniform, 3)
	base, err := Solve(in, Options{Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		got, err := SolveContext(context.Background(), in, Options{Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Length != base.Length {
			t.Fatalf("workers=%d: length %v != %v", workers, got.Length, base.Length)
		}
		for i := range base.Tour {
			if got.Tour[i] != base.Tour[i] {
				t.Fatalf("workers=%d: tours diverge at %d", workers, i)
			}
		}
		if got.Stats != base.Stats {
			t.Fatalf("workers=%d: stats %+v != %+v", workers, got.Stats, base.Stats)
		}
	}
}

// Progress events walk the level/epoch structure: one event per
// write-back epoch plus a final one per level, levels in top-down
// order, each level closing with Iter == Iters.
func TestProgressEventStructure(t *testing.T) {
	in := tsplib.Generate("ctx-progress", 350, tsplib.StyleUniform, 4)
	var events []ProgressEvent
	res, err := SolveContext(context.Background(), in, Options{
		Seed:     1,
		Progress: func(ev ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	levels := events[0].Levels
	if levels != res.Stats.Levels {
		t.Fatalf("events claim %d levels, stats say %d", levels, res.Stats.Levels)
	}
	epochs := noise.PaperSchedule().Epochs
	perLevel := map[int]int{}
	lastLevel := -1
	for i, ev := range events {
		if ev.Levels != levels {
			t.Fatalf("event %d changes Levels to %d", i, ev.Levels)
		}
		if ev.Level < lastLevel {
			t.Fatalf("event %d goes back to level %d after %d", i, ev.Level, lastLevel)
		}
		if ev.Clusters <= 0 || ev.Iters <= 0 || ev.Iter < 0 || ev.Iter > ev.Iters {
			t.Fatalf("event %d implausible: %+v", i, ev)
		}
		if ev.Objective <= 0 {
			t.Fatalf("event %d objective %v", i, ev.Objective)
		}
		lastLevel = ev.Level
		perLevel[ev.Level]++
	}
	last := events[len(events)-1]
	if last.Level != levels-1 || last.Iter != last.Iters {
		t.Fatalf("final event %+v does not close the last level", last)
	}
	for lv := 0; lv < levels; lv++ {
		// One event per epoch plus the closing event.
		if perLevel[lv] != epochs+1 {
			t.Fatalf("level %d emitted %d events, want %d", lv, perLevel[lv], epochs+1)
		}
	}
}

// Cancelling during the solve aborts promptly with context.Canceled;
// cancelling before it starts never anneals at all.
func TestSolveContextCancellation(t *testing.T) {
	in := tsplib.Generate("ctx-cancel", 400, tsplib.StyleUniform, 5)

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := SolveContext(pre, in, Options{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: want context.Canceled, got %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	fired := 0
	_, err := SolveContext(ctx, in, Options{
		Seed: 1,
		Progress: func(ProgressEvent) {
			fired++
			if fired == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-solve: want context.Canceled, got %v", err)
	}
	if fired > 3 {
		t.Fatalf("solve kept emitting %d events after cancellation", fired)
	}
}
