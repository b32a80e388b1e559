// Command cimserve exposes the repository's solvers as a long-lived
// HTTP job service: clients submit solve jobs — TSP via the clustered
// noisy-CIM annealer, plus maxcut / ising / qubo on the generic spin
// substrate — poll or stream progress, cancel runs, and scrape service
// metrics. Many clients are multiplexed onto a bounded pool of solver
// slots, the way the paper's chip time-multiplexes cluster windows
// onto one CIM array.
//
// Usage:
//
//	cimserve -addr :8080 -concurrency 4 -queue 128 -ttl 15m
//
// Submit a TSP job (legacy top-level schema, still accepted):
//
//	curl -s localhost:8080/v1/jobs -d '{"generate":{"name":"pcb-like","n":10000,"seed":7},
//	  "options":{"pmax":3,"seed":1,"skip_hardware":true}}'
//
// Submit a Max-Cut job (problem-section schema):
//
//	curl -s localhost:8080/v1/jobs -d '{"maxcut":{"generate":{"n":512,"density":0.05,"seed":13},
//	  "sweeps":400,"seed":1}}'
//
// Stream its progress (SSE):
//
//	curl -N localhost:8080/v1/jobs/<id>/events
//
// Fleet mode (see README "Fleet quick-start"): -role coordinator keeps
// the full public API and leases journaled jobs to workers; -role
// worker joins a coordinator, solves claimed jobs and ships checkpoints
// back; -role standalone (the default) is the single-node service,
// byte-for-byte today's behavior.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"cimsa/internal/fairsched"
	"cimsa/internal/fleet"
	"cimsa/internal/problem"
	"cimsa/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cimserve: ")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		concurrency = flag.Int("concurrency", 2, "solver slots (jobs solving at once); in coordinator mode this bounds in-flight fleet dispatches, so size it to fleet capacity")
		queue       = flag.Int("queue", 64, "wait-queue depth; beyond it submissions get 429")
		ttl         = flag.Duration("ttl", 15*time.Minute, "how long finished results stay fetchable")
		replay      = flag.Int("replay", 512, "per-job SSE replay buffer (events kept for reconnects)")
		maxN        = flag.Int("max-n", 200000, "largest tsp instance (cities) accepted; 0 = unlimited")
		maxVertices = flag.Int("max-vertices", 100000, "largest maxcut graph (vertices) accepted; 0 = unlimited")
		maxEdges    = flag.Int("max-edges", 2000000, "largest maxcut graph (edges) accepted; 0 = unlimited")
		maxSpins    = flag.Int("max-spins", 2048, "largest ising/qubo system (spins) accepted — the dense coupling matrix is spins²; 0 = unlimited")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget before solves are cancelled")
		stateDir    = flag.String("state-dir", "", "persist jobs and solver checkpoints here; on boot, interrupted jobs are re-enqueued and resume mid-solve (required for -role coordinator)")
		ckptEvery   = flag.Int("checkpoint-every", 1, "with -state-dir: write one solver snapshot per this many write-back epochs")
		tenantsCfg  = flag.String("tenants-config", "", "JSON file of per-tenant fair-scheduling weights and quotas (see README); absent means one unlimited lane per tenant")
		cacheEntr   = flag.Int("cache-entries", 0, "result-cache capacity in entries; with -cache-bytes both 0, caching is off")
		cacheBytes  = flag.Int64("cache-bytes", 0, "result-cache capacity in marshalled bytes; 0 = no byte bound")

		role      = flag.String("role", "standalone", "standalone | coordinator | worker")
		join      = flag.String("join", "", "worker: coordinator base URL, e.g. http://host:8080")
		fleetAuth = flag.String("fleet-auth", os.Getenv("CIMSERVE_FLEET_AUTH"), "shared secret for /v1/fleet/* (X-Fleet-Auth header; default $CIMSERVE_FLEET_AUTH); empty leaves the claim protocol open — only safe when the listener is network-isolated")
		nodeName  = flag.String("node", "", "worker: fleet node name (default: hostname, folded to the allowed alphabet)")
		lease     = flag.Duration("lease", 15*time.Second, "coordinator: how long a worker's claim stands without a renewing touch")
		heartbeat = flag.Duration("heartbeat", 0, "worker: lease-renewal cadence (default: lease/3)")
		poll      = flag.Duration("poll", 250*time.Millisecond, "worker: idle claim-poll cadence")
		scratch   = flag.String("scratch-dir", "", "worker: local per-job checkpoint scratch (default: under the OS temp dir)")
	)
	flag.Parse()

	limits := problem.Limits{
		MaxCities:   *maxN,
		MaxVertices: *maxVertices,
		MaxEdges:    *maxEdges,
		MaxSpins:    *maxSpins,
	}

	switch *role {
	case "standalone", "coordinator":
	case "worker":
		runWorker(workerArgs{
			addr:      *addr,
			join:      *join,
			auth:      *fleetAuth,
			node:      *nodeName,
			lease:     *lease,
			heartbeat: *heartbeat,
			poll:      *poll,
			scratch:   *scratch,
			limits:    limits,
		})
		return
	default:
		log.Fatalf("unknown -role %q (standalone | coordinator | worker)", *role)
	}

	cfg := serve.Config{
		MaxConcurrent: *concurrency,
		QueueDepth:    *queue,
		ResultTTL:     *ttl,
		ReplayBuffer:  *replay,
		CacheEntries:  *cacheEntr,
		CacheBytes:    *cacheBytes,
		Logf:          log.Printf,
	}
	if *tenantsCfg != "" {
		data, err := os.ReadFile(*tenantsCfg)
		if err != nil {
			log.Fatal(err)
		}
		tc, err := fairsched.ParseConfig(data)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Tenants = tc
		log.Printf("tenant policies loaded from %s (%d explicit tenant(s))", *tenantsCfg, len(tc.Tenants))
	}
	if *cacheEntr > 0 || *cacheBytes > 0 {
		log.Printf("result cache on (%d entries, %d bytes)", *cacheEntr, *cacheBytes)
	}
	var recovered []serve.JournalEntry
	var journal *serve.Journal
	if *stateDir != "" {
		var err error
		var entries []serve.JournalEntry
		journal, entries, err = serve.OpenJournal(filepath.Join(*stateDir, "journal.jsonl"))
		if err != nil {
			log.Fatal(err)
		}
		defer journal.Close()
		cfg.Journal = journal
		cfg.CheckpointDir = filepath.Join(*stateDir, "checkpoints")
		cfg.CheckpointEvery = *ckptEvery
		recovered = entries
	}

	var coord *fleet.Coordinator
	if *role == "coordinator" {
		if *stateDir == "" {
			log.Fatal("-role coordinator requires -state-dir: claims are journaled and checkpoints shipped there")
		}
		coord = fleet.NewCoordinator(fleet.Config{
			Lease:   *lease,
			Journal: journal,
			Auth:    *fleetAuth,
			Logf:    log.Printf,
		})
		cfg.Fleet = coord
		if *fleetAuth == "" {
			log.Printf("warning: -fleet-auth empty: /v1/fleet/* is open — any network peer can register, claim jobs and post results; set a shared secret unless the listener is network-isolated")
		}
	}

	sched := serve.NewScheduler(cfg)
	srv := serve.NewServer(sched)
	srv.Limits = limits
	handler := http.Handler(srv.Handler())
	if coord != nil {
		srv.Fleet = coord.Stats
		sched.Metrics.FleetStats = coord.Stats
		mux := http.NewServeMux()
		mux.Handle("/", srv.Handler())
		coord.Routes(mux)
		handler = mux
	}
	if len(recovered) > 0 {
		log.Printf("recovering %d interrupted job(s) from %s", len(recovered), *stateDir)
		n := srv.Recover(recovered)
		log.Printf("recovery done: %d job(s) re-enqueued", n)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if coord != nil {
		// Sweep expired leases on a cadence well under the lease, so a dead
		// node's job is back in the queue within a fraction of one lease.
		go func() {
			t := time.NewTicker(*lease / 4)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if n := coord.Sweep(); n > 0 {
						log.Printf("fleet: %d lease(s) expired and requeued", n)
					}
				}
			}
		}()
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("shutting down: draining for up to %v", *drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Stop accepting connections first, then drain the solver queue.
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		if err := sched.Shutdown(shutCtx); err != nil {
			log.Printf("scheduler shutdown: %v (in-flight solves cancelled)", err)
		}
	}()

	log.Printf("listening on %s as %s (%d slots, queue %d, ttl %v)", *addr, *role, *concurrency, *queue, *ttl)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained
}

type workerArgs struct {
	addr      string
	join      string
	auth      string
	node      string
	lease     time.Duration
	heartbeat time.Duration
	poll      time.Duration
	scratch   string
	limits    problem.Limits
}

// runWorker joins a coordinator and serves claims until signalled. The
// worker's own listener carries only /healthz and /metrics — the public
// job API lives on the coordinator.
func runWorker(a workerArgs) {
	if a.join == "" {
		log.Fatal("-role worker requires -join <coordinator URL>")
	}
	node := a.node
	if node == "" {
		host, err := os.Hostname()
		if err != nil {
			log.Fatalf("-node not set and hostname unavailable: %v", err)
		}
		node = foldNodeName(host)
	}
	if !fairsched.ValidName(node) {
		log.Fatalf("-node %q invalid: need 1..64 bytes of [A-Za-z0-9._-]", node)
	}
	hb := a.heartbeat
	if hb <= 0 {
		hb = a.lease / 3
	}
	worker, err := fleet.NewWorker(fleet.WorkerConfig{
		Node:      node,
		Transport: &fleet.Client{BaseURL: a.join, Auth: a.auth},
		BuildTask: func(source json.RawMessage) (problem.Task, error) {
			var req serve.SubmitRequest
			if err := json.Unmarshal(source, &req); err != nil {
				return nil, fmt.Errorf("parsing job source: %w", err)
			}
			return serve.TaskFor(&req, a.limits)
		},
		ScratchDir:     a.scratch,
		HeartbeatEvery: hb,
		PollEvery:      a.poll,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":      "ok",
			"role":        "worker",
			"node":        node,
			"coordinator": a.join,
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = serve.WriteWorkerMetrics(w, node, worker.Stats())
	})
	httpSrv := &http.Server{Addr: a.addr, Handler: mux}
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	log.Printf("worker %s joining %s (heartbeat %v, poll %v)", node, a.join, hb, a.poll)
	if err := worker.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("worker: %v", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutCtx)
}

// foldNodeName maps a hostname onto the fleet's allowed alphabet
// (letters, digits, dot, underscore, dash; max 64 bytes).
func foldNodeName(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s) && len(out) < 64; i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			out = append(out, c)
		default:
			out = append(out, '-')
		}
	}
	if len(out) == 0 {
		return "worker"
	}
	return string(out)
}
