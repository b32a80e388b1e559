package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cimsa/internal/checkpoint"
	"cimsa/internal/problem"
)

// WorkerConfig parameterizes a worker node.
type WorkerConfig struct {
	// Node is this worker's fleet identity (must pass the fairsched
	// name guard — the coordinator enforces it at registration).
	Node string
	// Transport reaches the coordinator (a *Client for a remote one, or
	// the *Coordinator itself in-process).
	Transport Transport
	// BuildTask rebuilds a validated task from a grant's source body.
	// Injected (rather than imported from serve) so fleet stays free of
	// the serve dependency; cmd/cimserve wires serve.TaskFor here.
	BuildTask func(source json.RawMessage) (problem.Task, error)
	// ScratchDir holds per-job local checkpoint directories. Default:
	// os.TempDir()/cimsa-worker-<node>.
	ScratchDir string
	// HeartbeatEvery is the lease-renewal cadence; it must be well under
	// the coordinator's lease (the CLI defaults it to lease/3).
	// Default 1s.
	HeartbeatEvery time.Duration
	// PollEvery is the idle claim-poll cadence. Default 250ms.
	PollEvery time.Duration
	// Logf logs operational events. Default: discard.
	Logf func(format string, args ...any)
}

// Worker is one fleet node: it registers, heartbeats, claims one job at
// a time, solves locally, ships checkpoints, and posts the result. A
// worker holds no durable state of its own — everything that must
// survive it lives on the coordinator — so killing one loses at most
// the epochs since its last shipped checkpoint.
type Worker struct {
	cfg WorkerConfig

	mu     sync.Mutex
	active map[string]context.CancelFunc

	killed atomic.Bool

	// Counters, read together by Stats.
	claimed, completed, failed, resumed, shipped, reRegisters atomic.Int64
}

// NewWorker builds a worker with defaults applied.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Node == "" {
		return nil, errors.New("fleet: worker needs a node name")
	}
	if cfg.Transport == nil {
		return nil, errors.New("fleet: worker needs a transport")
	}
	if cfg.BuildTask == nil {
		return nil, errors.New("fleet: worker needs a BuildTask hook")
	}
	if cfg.ScratchDir == "" {
		cfg.ScratchDir = filepath.Join(os.TempDir(), "cimsa-worker-"+cfg.Node)
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 250 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Worker{cfg: cfg, active: map[string]context.CancelFunc{}}, nil
}

// Kill hard-aborts the worker for failover tests: every local solve is
// cancelled and nothing further is sent to the coordinator — the
// in-process approximation of kill -9. The coordinator finds out the
// only way it can for a really-dead node: the lease expires.
func (w *Worker) Kill() {
	w.killed.Store(true)
	w.mu.Lock()
	for _, cancel := range w.active {
		cancel()
	}
	w.mu.Unlock()
}

// Run registers and serves until ctx is cancelled (or Kill). It
// heartbeats on its own cadence even while a solve runs — the solve
// must not starve lease renewal — and claims a new job only while idle.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := w.cfg.Transport.Register(w.cfg.Node); err != nil {
			if ctx.Err() != nil || w.killed.Load() {
				return ctx.Err()
			}
			w.cfg.Logf("fleet worker %s: register: %v (retrying)", w.cfg.Node, err)
			if !sleepCtx(ctx, w.cfg.PollEvery) {
				return ctx.Err()
			}
			continue
		}
		break
	}
	hb := time.NewTicker(w.cfg.HeartbeatEvery)
	defer hb.Stop()
	poll := time.NewTicker(w.cfg.PollEvery)
	defer poll.Stop()
	var solving sync.WaitGroup
	defer solving.Wait()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-hb.C:
			if w.killed.Load() {
				return nil
			}
			cancels, err := w.cfg.Transport.Heartbeat(w.cfg.Node)
			if errors.Is(err, ErrUnknownNode) {
				// Coordinator restarted (or swept us): every token we hold is
				// void, so local work is wasted — cancel it and re-register.
				w.reRegisters.Add(1)
				w.cancelAll()
				if rerr := w.cfg.Transport.Register(w.cfg.Node); rerr != nil {
					w.cfg.Logf("fleet worker %s: re-register: %v", w.cfg.Node, rerr)
				}
				continue
			}
			if err != nil {
				w.cfg.Logf("fleet worker %s: heartbeat: %v", w.cfg.Node, err)
				continue
			}
			for _, id := range cancels {
				w.cancelJob(id)
			}
		case <-poll.C:
			if w.killed.Load() {
				return nil
			}
			if w.busy() {
				continue
			}
			g, err := w.cfg.Transport.Claim(w.cfg.Node)
			if err != nil {
				if !errors.Is(err, ErrUnknownNode) {
					w.cfg.Logf("fleet worker %s: claim: %v", w.cfg.Node, err)
				}
				continue
			}
			if g == nil {
				continue
			}
			w.claimed.Add(1)
			jctx, cancel := context.WithCancel(ctx)
			w.mu.Lock()
			w.active[g.JobID] = cancel
			w.mu.Unlock()
			solving.Add(1)
			go func() {
				defer solving.Done()
				w.solve(jctx, g)
				w.mu.Lock()
				delete(w.active, g.JobID)
				w.mu.Unlock()
				cancel()
			}()
		}
	}
}

func (w *Worker) busy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.active) > 0
}

func (w *Worker) cancelJob(id string) {
	w.mu.Lock()
	cancel := w.active[id]
	w.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (w *Worker) cancelAll() {
	w.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(w.active))
	for _, c := range w.active {
		cancels = append(cancels, c)
	}
	w.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// solve runs one granted job: seed the scratch dir with the shipped
// checkpoint (if any), rebuild the task from the source body, solve with
// checkpoint shipping, and post the completion. A grant whose shipped
// checkpoint no longer verifies (version skew, fabric change) is solved
// fresh — wasted work, never a wrong answer.
func (w *Worker) solve(ctx context.Context, g *Grant) {
	scratch := filepath.Join(w.cfg.ScratchDir, g.JobID)
	defer os.RemoveAll(scratch)
	res, errMsg := w.solveIn(ctx, g, scratch, true)
	if w.killed.Load() {
		return // kill -9 semantics: the result dies with the node
	}
	if errMsg != "" {
		w.failed.Add(1)
	} else {
		w.completed.Add(1)
	}
	err := w.cfg.Transport.Complete(g.JobID, w.cfg.Node, g.Token, res, errMsg)
	if err != nil && !errors.Is(err, ErrGone) {
		w.cfg.Logf("fleet worker %s: completing %s: %v", w.cfg.Node, g.JobID, err)
	}
}

// solveIn performs the solve attempt; allowRetry permits one fresh
// restart after a checkpoint the coordinator shipped fails to verify.
func (w *Worker) solveIn(ctx context.Context, g *Grant, scratch string, allowRetry bool) (*problem.Result, string) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, fmt.Sprintf("worker scratch: %v", err)
	}
	if g.CheckpointName != "" && len(g.Checkpoint) > 0 {
		if err := os.WriteFile(filepath.Join(scratch, g.CheckpointName), g.Checkpoint, 0o644); err != nil {
			return nil, fmt.Sprintf("worker checkpoint seed: %v", err)
		}
	}
	task, err := w.cfg.BuildTask(g.Source)
	if err != nil {
		return nil, fmt.Sprintf("rebuilding task: %v", err)
	}
	run := problem.Run{
		CheckpointDir:   scratch,
		CheckpointEvery: g.CheckpointEvery,
		Progress: func(ev problem.Progress) {
			if w.killed.Load() {
				return
			}
			if perr := w.cfg.Transport.Progress(g.JobID, w.cfg.Node, g.Token, ev); errors.Is(perr, ErrGone) || errors.Is(perr, ErrUnknownNode) {
				w.cancelJob(g.JobID)
			}
		},
		OnCheckpointWrite: func(path string) {
			if w.killed.Load() {
				return
			}
			data, rerr := os.ReadFile(path)
			if rerr != nil {
				w.cfg.Logf("fleet worker %s: reading checkpoint %s: %v", w.cfg.Node, path, rerr)
				return
			}
			serr := w.cfg.Transport.ShipCheckpoint(g.JobID, w.cfg.Node, g.Token, filepath.Base(path), data)
			if errors.Is(serr, ErrGone) || errors.Is(serr, ErrUnknownNode) {
				w.cancelJob(g.JobID)
				return
			}
			if serr != nil {
				w.cfg.Logf("fleet worker %s: shipping checkpoint for %s: %v", w.cfg.Node, g.JobID, serr)
				return
			}
			w.shipped.Add(1)
		},
		OnCheckpointResume: func(string) { w.resumed.Add(1) },
	}
	// A panicking solve is settled as this job's failure instead of
	// killing the worker.
	res, err := problem.SolveRecovering(w.cfg.Logf, fmt.Sprintf("fleet worker %s: job %s", w.cfg.Node, g.JobID), func() (*problem.Result, error) {
		return task.Solve(ctx, run)
	})
	if err != nil {
		if allowRetry && (errors.Is(err, checkpoint.ErrInvalid) || errors.Is(err, checkpoint.ErrMismatch)) {
			// The shipped snapshot doesn't match this job (version skew or a
			// config change since it was written). Solving fresh re-derives
			// the same deterministic stream from the seed, so the answer is
			// still exact — only the partial progress is lost.
			w.cfg.Logf("fleet worker %s: checkpoint for %s rejected (%v); solving fresh", w.cfg.Node, g.JobID, err)
			os.RemoveAll(scratch)
			g2 := *g
			g2.CheckpointName, g2.Checkpoint = "", nil
			return w.solveIn(ctx, &g2, scratch, false)
		}
		return nil, err.Error()
	}
	return res, ""
}

// sleepCtx sleeps d or until ctx cancels; reports whether it slept.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// WorkerStats is a snapshot of a worker's counters.
type WorkerStats struct {
	Claimed, Completed, Failed, Resumed, Shipped, ReRegisters int64
}

// Stats reads the worker's counters; the worker-side /metrics body
// renders them.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{w.claimed.Load(), w.completed.Load(), w.failed.Load(), w.resumed.Load(), w.shipped.Load(), w.reRegisters.Load()}
}
