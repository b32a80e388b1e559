package checkpoint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// iterSnapshot is testSnapshot tagged with a distinct Solver.Iter, so
// each write can be told apart on disk.
func iterSnapshot(iter int) *Snapshot {
	s := testSnapshot(testInstance())
	s.Solver.Iter = iter
	return s
}

// loadIter decodes the file at path and returns its Solver.Iter.
func loadIter(t *testing.T, path string) int {
	t.Helper()
	s, err := Load(path)
	if err != nil {
		t.Errorf("onWrite: %v", err)
		return -1
	}
	return s.Solver.Iter
}

// TestWriterLatestWins holds the writer inside A's onWrite while B and
// C are handed off: B is superseded before its write starts, so only A
// and then C ever reach disk.
func TestWriterLatestWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.ckpt")
	entered := make(chan struct{})
	release := make(chan struct{})
	var written []int
	w := NewWriter(path, func(p string) {
		written = append(written, loadIter(t, p))
		if len(written) == 1 {
			close(entered)
			<-release
		}
	})
	if err := w.Put(iterSnapshot(1), false); err != nil {
		t.Fatal(err)
	}
	<-entered
	for _, iter := range []int{2, 3} {
		if err := w.Put(iterSnapshot(iter), false); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3}; !reflect.DeepEqual(written, want) {
		t.Fatalf("writes reached disk as %v, want %v", written, want)
	}
	if got := loadIter(t, path); got != 3 {
		t.Fatalf("file holds iter %d after Close, want the newest (3)", got)
	}
}

// TestWriterWaitIsDurable: Put with wait returns only after its
// snapshot decodes from the file and onWrite has returned for it.
func TestWriterWaitIsDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.ckpt")
	var observed []int
	w := NewWriter(path, func(p string) { observed = append(observed, loadIter(t, p)) })
	defer w.Close()
	for iter := 1; iter <= 5; iter++ {
		if err := w.Put(iterSnapshot(iter), iter%2 == 0); err != nil {
			t.Fatal(err)
		}
		if iter%2 != 0 {
			continue
		}
		if got := loadIter(t, path); got != iter {
			t.Fatalf("after waiting Put(%d) the file holds iter %d", iter, got)
		}
		if n := len(observed); n == 0 || observed[n-1] != iter {
			t.Fatalf("after waiting Put(%d) onWrite has seen %v", iter, observed)
		}
	}
}

// TestWriterSurfacesSaveError: a non-empty directory at path makes the
// rename fail; the error comes back from the next Put and from Close,
// and onWrite never runs.
func TestWriterSurfacesSaveError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.ckpt")
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	writes := 0
	w := NewWriter(path, func(string) { writes++ })
	if err := w.Put(iterSnapshot(1), false); err != nil {
		t.Fatalf("first hand-off failed before any write: %v", err)
	}
	// Whether the first write has failed yet or not, a waiting Put
	// cannot return until it has.
	if err := w.Put(iterSnapshot(2), true); err == nil || !strings.Contains(err.Error(), "rename") {
		t.Fatalf("waiting Put after a failed write: got %v, want the rename error", err)
	}
	if err := w.Put(iterSnapshot(3), false); err == nil || !strings.Contains(err.Error(), "rename") {
		t.Fatalf("Put after a failed write: got %v, want the rename error", err)
	}
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "rename") {
		t.Fatalf("Close: got %v, want the rename error", err)
	}
	if writes != 0 {
		t.Fatalf("onWrite ran %d times for failed writes", writes)
	}
}

// TestWriterNoWriteAfterClose: Close drains the pending snapshot and
// joins the goroutine, so onWrite's plain counter is safe to read (the
// race detector checks it) and never moves again.
func TestWriterNoWriteAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.ckpt")
	writes := 0
	w := NewWriter(path, func(string) { writes++ })
	const puts = 20
	for iter := 1; iter <= puts; iter++ {
		if err := w.Put(iterSnapshot(iter), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := writes
	if n < 1 || n > puts {
		t.Fatalf("%d writes for %d hand-offs", n, puts)
	}
	if got := loadIter(t, path); got != puts {
		t.Fatalf("Close left iter %d on disk, want the last hand-off (%d)", got, puts)
	}
	if err := w.Put(iterSnapshot(puts+1), true); err == nil {
		t.Fatal("Put after Close was accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if writes != n {
		t.Fatalf("onWrite ran after Close returned (%d -> %d)", n, writes)
	}
}
