package checkpoint

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// Writer persists one solve's snapshots to a single path from one
// background goroutine, latest wins: Put hands a snapshot off and
// returns at once, and a snapshot still pending when the next one
// arrives is dropped unwritten. Every write is a full Save, so the file
// always holds a complete snapshot, at worst an older one than the
// solve has reached. Snapshots handed to Put must not be mutated
// afterwards.
//
// onWrite, when non-nil, runs on the writer goroutine after each
// successful write, never concurrently with itself, and never after
// Close has returned. A panic in a write or in onWrite does not end the
// process: it becomes the writer's sticky error, with the panic value
// and stack, and stops the goroutine like a failed write.
type Writer struct {
	path    string
	onWrite func(path string)

	mu      sync.Mutex
	cond    sync.Cond
	pending *Snapshot
	put     uint64 // sequence number of the latest Put
	written uint64 // sequence number of the latest completed write
	err     error  // first write error; sticky
	closed  bool
	done    chan struct{}
}

var errWriterClosed = errors.New("checkpoint: writer closed")

// NewWriter starts the writer goroutine for path.
func NewWriter(path string, onWrite func(path string)) *Writer {
	w := &Writer{path: path, onWrite: onWrite, done: make(chan struct{})}
	w.cond.L = &w.mu
	go w.run()
	return w
}

// Put hands s to the writer, replacing any snapshot not yet being
// written. With wait set it returns only once s is on disk and onWrite
// has returned for it. It returns the first write error seen so far.
func (w *Writer) Put(s *Snapshot, wait bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errWriterClosed
	}
	w.pending = s
	w.put++
	seq := w.put
	w.cond.Broadcast()
	for wait && w.written < seq && w.err == nil {
		w.cond.Wait()
	}
	return w.err
}

// Close writes the pending snapshot, stops the goroutine and returns the
// first write error, if any.
func (w *Writer) Close() error {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *Writer) run() {
	defer close(w.done)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for w.pending == nil && !w.closed {
			w.cond.Wait()
		}
		if w.pending == nil {
			return
		}
		s, seq := w.pending, w.put
		w.pending = nil
		w.mu.Unlock()
		err := w.write(s)
		w.mu.Lock()
		// The first error stops the goroutine, so it is never overwritten.
		w.written, w.err = seq, err
		w.cond.Broadcast()
		if err != nil {
			return
		}
	}
}

// write saves s and runs onWrite, returning a panic in either as an
// error.
func (w *Writer) write(s *Snapshot) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("checkpoint: writer panicked: %v\n%s", v, debug.Stack())
		}
	}()
	if err = Save(w.path, s); err == nil && w.onWrite != nil {
		w.onWrite(w.path)
	}
	return err
}
