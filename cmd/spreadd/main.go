// Command spreadd is the simulation daemon: a long-running HTTP service
// that accepts k-token dissemination trial and sweep jobs as JSON, executes
// them on a bounded job queue over the parallel sweep pool, and serves
// machine-readable results backed by a content-addressed run cache (see
// internal/service for the API). The run cache is an in-memory LRU (-cache
// entries) or, with -store, an append-only on-disk log keyed by the spec's
// content address, so repeated requests cost zero simulation across daemon
// restarts and an interrupted sweep resumes where it stopped.
//
// Quick start:
//
//	spreadd -addr :8080 &
//	curl -s localhost:8080/v1/catalog | head
//	curl -s -X POST localhost:8080/v1/runs -d '{
//	  "trials": [{"n": 32, "k": 32, "algorithm": "single-source",
//	              "adversary": "churn", "seed": 1}]
//	}'
//	curl -s localhost:8080/v1/metrics | grep cache
//
// With -peers the daemon becomes a cluster COORDINATOR instead: the API is
// unchanged, but POST /v1/runs jobs are planned into deterministic shards
// and fanned out across the peer spreadd workers (internal/cluster), with
// per-shard retry and re-dispatch around dead workers. -store means the same
// in both modes: the coordinator serves stored trials from disk and
// dispatches only the rest.
//
//	spreadd -addr :8081 &   spreadd -addr :8082 &          # workers
//	spreadd -addr :8080 -peers localhost:8081,localhost:8082 -store ./results
//
// Observability: GET /v1/metrics serves Prometheus text exposition merging
// service, sweep-pool (or cluster), and store metrics; GET /v1/readyz gates
// traffic (503 while submissions would be refused) while /v1/healthz stays
// pure liveness; POST /v1/runs?stream=1 streams results as JSONL (spreadctl
// watch/top render these live). -pprof additionally exposes /debug/pprof/.
//
// Small jobs answer synchronously; large ones return 202 with a
// /v1/jobs/{id} to poll (?wait= holds the answer until the job ends).
// SIGINT/SIGTERM shut the daemon down gracefully: the listener stops, held
// status requests are answered at once, in-flight jobs drain (bounded by
// -drain-timeout, after which they are cancelled), and the process exits
// cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dynspread/internal/cluster"
	"dynspread/internal/obs"
	"dynspread/internal/service"
	"dynspread/internal/store"
	"dynspread/internal/tracing"
)

// options are the daemon's command-line flags.
type options struct {
	addr, peers, storeDir, traceLog, logFormat, logLevel string
	parallelism, queueDepth, jobWorkers, cacheSize       int
	syncLimit, shardSize, traceRing                      int
	drainTimeout                                         time.Duration
	pprof                                                bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.parallelism, "parallelism", 0, "sweep workers per job (0 = GOMAXPROCS)")
	flag.IntVar(&o.queueDepth, "queue", 64, "max queued jobs before submissions get 503")
	flag.IntVar(&o.jobWorkers, "job-workers", 2, "jobs executed concurrently")
	flag.IntVar(&o.cacheSize, "cache", 4096, "in-memory run-cache capacity in results (unused with -store)")
	flag.IntVar(&o.syncLimit, "sync-limit", 16, "largest job answered synchronously")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
	flag.StringVar(&o.peers, "peers", "", "comma-separated spreadd worker base URLs; when set, this daemon coordinates: POST /v1/runs jobs are sharded across the peers")
	flag.StringVar(&o.storeDir, "store", "", "persistent store directory: the run cache in place of the in-memory one (stored trials are served from disk, new results appended), and where captured debug profiles land")
	flag.IntVar(&o.shardSize, "shard-size", 0, "trials per shard in coordinator mode (0 = default)")
	flag.BoolVar(&o.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default; see docs for the profiling recipe)")
	flag.IntVar(&o.traceRing, "trace-ring", 4096, "finished spans kept in memory for GET /v1/traces (0 disables tracing)")
	flag.StringVar(&o.traceLog, "trace-log", "", "append every finished span as a JSON line to this file")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log format: text or json")
	flag.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn, error")
	flag.Parse()

	logger, err := buildLogger(o.logFormat, o.logLevel)
	if err != nil {
		log.Fatalf("spreadd: %v", err)
	}
	d, err := assemble(o, logger)
	if err != nil {
		log.Fatalf("spreadd: %v", err)
	}
	defer d.close()

	handler := d.svc.Handler()
	if o.pprof {
		// Explicit pprof routes on a wrapping mux rather than the
		// DefaultServeMux side effect of importing net/http/pprof — nothing
		// is exposed unless the flag asked for it.
		root := http.NewServeMux()
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root.Handle("/", handler)
		handler = root
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", o.addr, "mode", d.mode,
		"queue", o.queueDepth, "job_workers", o.jobWorkers, "cache", o.cacheSize,
		"tracing", o.traceRing > 0)

	select {
	case err := <-errc:
		log.Fatalf("spreadd: %v", err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down", "drain_timeout", o.drainTimeout.String())

	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	httpErr, drainErr := shutdown(drainCtx, httpSrv, d.svc)
	if httpErr != nil {
		logger.Warn("http shutdown", "error", httpErr.Error())
	}
	if drainErr != nil {
		if errors.Is(drainErr, context.DeadlineExceeded) {
			logger.Warn("drain timed out, in-flight jobs cancelled")
		} else {
			logger.Warn("drain", "error", drainErr.Error())
		}
	}
	fmt.Println("spreadd: bye")
}

// shutdown stops the daemon within ctx. The service's drain starts at
// once, beside the HTTP server's: it refuses submissions and answers every
// held status request (GET /v1/jobs/{id}?wait=), so the HTTP server, which
// stops listening and waits for the requests in flight, is not held up for
// as long as a hold lasts.
func shutdown(ctx context.Context, httpSrv *http.Server, svc *service.Server) (httpErr, drainErr error) {
	drained := make(chan error, 1)
	go func() { drained <- svc.Shutdown(ctx) }()
	httpErr = httpSrv.Shutdown(ctx)
	return httpErr, <-drained
}

// daemon is an assembled spreadd: its service, the registry every layer
// reports its metrics to, and what the service holds open.
type daemon struct {
	svc     *service.Server
	reg     *obs.Registry
	mode    string
	closers []io.Closer
}

// assemble builds the daemon o describes. One registry merges every layer's
// metrics — service, sweep pool or cluster coordinator, result store,
// tracer — onto GET /v1/metrics, and one tracer records every layer's spans
// into the ring GET /v1/traces serves. The caller shuts d.svc down before
// it calls d.close.
func assemble(o options, logger *slog.Logger) (_ *daemon, err error) {
	d := &daemon{reg: obs.NewRegistry(), mode: "worker"}
	defer func() {
		if err != nil {
			d.close()
		}
	}()

	var tracer *tracing.Tracer
	if o.traceRing > 0 {
		tcfg := tracing.Config{Service: "spreadd@" + o.addr, RingSize: o.traceRing, Registry: d.reg}
		if o.traceLog != "" {
			f, err := os.OpenFile(o.traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("open -trace-log: %w", err)
			}
			d.closers = append(d.closers, f)
			tcfg.Output = f
		}
		tracer = tracing.New(tcfg)
	}

	cfg := service.Config{
		Parallelism:    o.parallelism,
		QueueDepth:     o.queueDepth,
		JobWorkers:     o.jobWorkers,
		CacheSize:      o.cacheSize,
		SyncTrialLimit: o.syncLimit,
		Registry:       d.reg,
		Tracer:         tracer,
		Logger:         logger,
	}

	// One store serves two planes in every mode: it is the run cache, so the
	// service looks each trial up once before any runner (local pool or
	// coordinator) sees it, and it holds the debug-profile blobs that POST
	// /v1/debug/profile captures.
	if o.storeDir != "" {
		st, err := store.Open(o.storeDir)
		if err != nil {
			return nil, err
		}
		d.closers = append(d.closers, st)
		st.Register(d.reg)
		cfg.Store = st
	}

	if o.peers != "" {
		workers := service.SplitBaseURLs(o.peers)
		ccfg := cluster.Config{Workers: workers, ShardSize: o.shardSize, Metrics: d.reg, Tracer: tracer, Logger: logger}
		coord, err := cluster.New(ccfg)
		if err != nil {
			return nil, err
		}
		cfg.Runner = coord.RunSpecs
		// The coordinator's trace endpoint assembles the distributed trace:
		// local spans plus every worker's, fetched on demand.
		cfg.TraceFetch = coord.FetchSpans
		d.mode = fmt.Sprintf("coordinator over %d workers %v", len(workers), workers)
	}
	if o.storeDir != "" {
		d.mode += " (store " + o.storeDir + ")"
	}

	d.svc = service.New(cfg)
	return d, nil
}

// close releases what the daemon holds open, newest first.
func (d *daemon) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i].Close()
	}
}

// buildLogger constructs the daemon's structured logger: text (the default,
// human-first) or json (one object per line, machine-first), gated at the
// given minimum level. Every layer below shares this logger, so job and
// dispatch lines carry the same trace_id/span_id fields the trace endpoint
// serves.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}
