// Package service is the simulation-service layer behind cmd/spreadd: a
// long-running HTTP daemon that serves conf_icdcs_AhmadiKKMP19's k-token
// dissemination simulations to many concurrent clients. Jobs arrive as JSON
// (wire.RunRequest — trials and grids naming algorithms, adversaries,
// and scenarios by registry name), are scheduled on a bounded job queue
// whose workers execute trials on the context-cancellable sweep pool, and
// return wire.TrialResult values. Because every run is a deterministic
// function of its resolved spec, results are kept in a content-addressed
// run cache (canonical-JSON key, see wire.Key) — an in-memory LRU, or the
// on-disk result store when one is configured — so repeated requests cost
// zero simulation work.
//
// Endpoints (all under /v1):
//
//	POST /v1/runs      submit trials/a grid; small jobs run synchronously
//	                   (200 + results) while a sync slot is free, large,
//	                   Async, or slot-starved ones queue (202 + Location:
//	                   /v1/jobs/{id}); ?stream=1 answers chunked JSONL
//	                   (see stream.go for the protocol and backpressure
//	                   contract)
//	GET  /v1/jobs/{id} job status with live completed/total progress;
//	                   ?wait=D (a Go duration) holds the answer until the
//	                   job ends or D (at most 10 s) elapses
//	GET  /v1/jobs/{id}/stream attach a JSONL stream to a submitted job
//	GET  /v1/jobs/{id}/rounds per-trial round series of a done recorded job
//	POST /v1/debug/profile    capture a pprof profile (?kind=cpu|heap,
//	                   &seconds=N for cpu) into the profile store
//	GET  /v1/debug/profiles   list captured profiles; /{id} downloads one
//	GET  /v1/catalog   registered algorithms, adversaries, and scenarios
//	GET  /v1/healthz   pure liveness: 200 whenever the process can answer
//	GET  /v1/readyz    readiness: 503 while submissions would be refused
//	                   (shutdown begun or queue full), 200 otherwise
//	GET  /v1/metrics   Prometheus text exposition (internal/obs registry)
//
// Shutdown drains in-flight jobs via context cancellation: the sweep pool
// stops dispatching new trials, in-flight trials finish, and every worker
// goroutine exits before Shutdown returns.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynspread/internal/obs"
	"dynspread/internal/registry"
	"dynspread/internal/scenario"
	"dynspread/internal/store"
	"dynspread/internal/sweep"
	"dynspread/internal/tracing"
	"dynspread/internal/wire"
)

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// Parallelism is the sweep-pool worker count per job (<= 0 selects
	// GOMAXPROCS) of the default in-process Runner.
	Parallelism int
	// QueueDepth bounds the number of queued-but-not-running jobs; a full
	// queue refuses submissions with 503 (default 64).
	QueueDepth int
	// JobWorkers is the number of queued jobs executed concurrently; it also
	// sizes the synchronous-execution slots, so at most 2×JobWorkers sweep
	// pools ever run at once (default 2).
	JobWorkers int
	// CacheSize bounds the in-memory LRU run cache in entries (default
	// 4096). Unused when Store is set.
	CacheSize int
	// SyncTrialLimit is the largest job POST /v1/runs executes synchronously;
	// bigger jobs are queued and answered 202 (default 16).
	SyncTrialLimit int
	// JobHistory bounds how many finished jobs stay addressable via
	// GET /v1/jobs/{id}; older terminal jobs are forgotten (default 1024).
	JobHistory int
	// Runner executes the trial specs the cache could not serve, streaming
	// each completed result through onResult (under the sweep layer's
	// OnResult contract). Nil selects in-process execution on the sweep pool
	// (wire.RunSpecsWith, Parallelism workers). A coordinator-mode spreadd
	// installs internal/cluster's runner here, which is what makes POST
	// /v1/runs shard transparently across peers: the service layer —
	// queueing, caching, progress, shutdown — is identical either way.
	Runner Runner
	// Registry receives the server's metrics (exposed on GET /v1/metrics).
	// Nil creates a private registry. Pass a shared one so a daemon can merge
	// service, sweep-pool, cluster, and store metrics into a single page.
	// When Runner is nil, the server also registers sweep-pool metrics here
	// (the in-process runner it installs reports through them).
	Registry *obs.Registry
	// StreamBuffer is each result stream's send-buffer size in events;
	// a stream whose consumer falls this far behind drops to summary mode
	// (default 256). See stream.go for the backpressure contract.
	StreamBuffer int
	// Tracer, when non-nil, records a span tree per job — root "job" span
	// with "queue-wait" and "run" children, trial spans underneath (from the
	// sweep layer), all exposed on GET /v1/traces/{id}. Requests arriving
	// with a traceparent header join the caller's trace, which is how a
	// coordinator's dispatch spans parent this daemon's job spans. Nil
	// disables tracing; every call site degrades to a no-op.
	Tracer *tracing.Tracer
	// TraceFetch, when non-nil, contributes spans recorded by OTHER
	// processes to GET /v1/traces/{id} — a coordinator-mode spreadd installs
	// a fetcher that queries each worker's trace endpoint, so one GET
	// assembles the whole distributed trace. Best-effort: fetch failures
	// just mean fewer spans.
	TraceFetch func(ctx context.Context, traceID string) []tracing.SpanData
	// Logger receives structured job-lifecycle logs (submitted/done/failed),
	// each carrying job, trace_id, and span_id fields so log lines correlate
	// with spans and metrics. Nil discards.
	Logger *slog.Logger
	// Store, when non-nil, is the server's run cache in place of the
	// CacheSize LRU: results are served from and appended to this on-disk
	// log, so they survive restarts, in worker and coordinator mode alike.
	// It also enables on-demand profile capture: POST /v1/debug/profile
	// writes pprof blobs into it beside the result segments (the two planes
	// share a directory without interfering), and GET /v1/debug/profiles
	// lists them. Nil answers the debug endpoints 503.
	Store *store.Store
}

// runCache is where a server keeps results between jobs: Config.Store when
// set, the CacheSize LRU otherwise. Len feeds the cache-size gauge.
type runCache interface {
	store.Results
	Len() int
}

// Runner is the execution backend of a server. rec, when non-nil, is the
// job's flight-recorder request: every result must carry its round series.
type Runner func(ctx context.Context, specs []wire.TrialSpec, rec *wire.RecordSpec, onResult func(i int, r wire.TrialResult)) ([]wire.TrialResult, error)

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.SyncTrialLimit <= 0 {
		c.SyncTrialLimit = 16
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 1024
	}
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = 256
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Server is the simulation service.
type Server struct {
	cfg     Config
	runner  Runner
	cache   runCache
	reg     *obs.Registry
	metrics *serverMetrics

	ctx    context.Context
	cancel context.CancelFunc
	quit   chan struct{}
	queue  chan *job
	// profiling serializes CPU profile captures: the runtime supports one
	// StartCPUProfile at a time, so concurrent POST /v1/debug/profile?kind=cpu
	// requests beyond the first answer 409.
	profiling atomic.Bool
	// syncSem bounds inline (synchronous) job execution to JobWorkers slots
	// so a burst of small POSTs cannot oversubscribe the host: when no slot
	// is free the job spills to the queue and the client gets 202.
	syncSem chan struct{}

	workerWG sync.WaitGroup // queue workers
	jobWG    sync.WaitGroup // every runJob, inline or queued
	busy     atomic.Int64

	mu     sync.Mutex
	closed bool
	// nextID is the number in the last job ID handed out. It starts at a
	// random 9-digit number times 10⁶, so two servers (a worker before and
	// after a restart, say) hand out different IDs, and a poll for a job
	// the worker lost cannot read a job submitted since.
	nextID  int64
	jobs    map[string]*job
	retired []string // terminal job IDs, oldest first, capped at JobHistory
}

// New starts a server: cfg.JobWorkers goroutines consuming the job queue.
// Callers must Shutdown it to release them.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	obs.RegisterProcess(reg)
	obs.RegisterRuntime(reg)
	runner := cfg.Runner
	if runner == nil {
		// Only the in-process runner registers sweep-pool metrics: an
		// injected runner (coordinator mode, tests) reports through its own
		// instruments, and registering unused families here would make
		// /v1/metrics lie about a pool that never runs.
		runner = wire.RunSpecsWith(sweep.NewPoolMetrics(reg), cfg.Tracer, cfg.Parallelism)
	}
	s := &Server{
		cfg:     cfg,
		runner:  runner,
		reg:     reg,
		ctx:     ctx,
		cancel:  cancel,
		quit:    make(chan struct{}),
		queue:   make(chan *job, cfg.QueueDepth),
		syncSem: make(chan struct{}, cfg.JobWorkers),
		nextID:  (1e8 + rand.Int64N(9e8)) * 1e6,
		jobs:    make(map[string]*job),
	}
	if cfg.Store != nil {
		s.cache = cfg.Store
	} else {
		s.cache = NewCache(cfg.CacheSize)
	}
	s.metrics = newServerMetrics(s, reg)
	for w := 0; w < cfg.JobWorkers; w++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			// select picks at random among ready cases, so a worker that
			// frees up during the drain can take a job still queued when
			// Shutdown began: it cancels that job as the drain does.
			select {
			case <-s.quit:
				s.drop(j, context.Canceled)
				return
			default:
			}
			s.busy.Add(1)
			s.runJob(j)
			s.busy.Add(-1)
		}
	}
}

// runJob executes one job: store.Lookup serves cached specs instantly and
// collapses duplicates, the distinct misses run on the runner, and each
// completion is cached and streamed into every index holding its key (each
// duplicate instance still counts as its own cache miss, since none was
// served from the cache). A recorded job (RunRequest.Record set) passes the
// cache by entirely — see store.Lookup. A failed Put (Config.Store is a
// disk log) cancels the run and fails the job with the store's error.
func (s *Server) runJob(j *job) {
	defer s.release(j)
	j.queueSpan.End()
	j.setRunning()
	// The run span parents on the job root but executes under s.ctx, so
	// shutdown cancellation still reaches the sweep pool: ContextWithRemote
	// transplants only the trace identity, never the cancellation chain.
	ctx := s.ctx
	var runSpan *tracing.Span
	if j.span != nil {
		ctx, runSpan = s.cfg.Tracer.Start(tracing.ContextWithRemote(s.ctx, j.span.Context()), "run")
	}
	b := store.Lookup(j.specs, s.cache, j.record, j.deliver)
	misses := int64(len(j.specs) - b.Hits)
	j.cacheHits.Store(int64(b.Hits))
	j.cacheMisses.Store(misses)
	s.metrics.cacheHits.Add(int64(b.Hits))
	if j.record == nil {
		// A recorded job looks nothing up, so its trials miss for the job
		// but not for the cache.
		s.metrics.cacheMisses.Add(misses)
	}
	if runSpan != nil {
		runSpan.SetAttrInt("cache_hits", int64(b.Hits))
		runSpan.SetAttrInt("cache_misses", misses)
		runSpan.SetAttrInt("unique_misses", int64(len(b.Misses)))
	}
	if len(b.Misses) > 0 {
		runCtx, cancel := context.WithCancelCause(ctx)
		defer cancel(nil)
		_, err := s.runner(runCtx, b.Misses, j.record, func(mi int, r wire.TrialResult) {
			if err := b.Deliver(b.Keys[mi], r); err != nil {
				cancel(err)
			}
		})
		// Shutdown cancels with context.Canceled; any other cause is the
		// first failed Put, which outranks whatever the runner returned.
		if cause := context.Cause(runCtx); cause != nil && !errors.Is(cause, context.Canceled) {
			err = cause
		}
		if err != nil {
			runSpan.EndErr(err)
			j.finish(err)
			s.retire(j)
			return
		}
	}
	runSpan.End()
	j.finish(nil)
	s.retire(j)
}

// submit registers a job under a fresh ID and accounts it in jobWG — the
// Add happens under the same mutex that gates closed, so it can never race
// Shutdown's Wait. It fails once the server is shutting down.
//
// tctx carries the request's trace context (a remote parent extracted from
// the traceparent header, if any); the job's root "job" span and its
// "queue-wait" child are opened here, under the mutex, so the job is fully
// traced before it becomes visible to concurrent /v1/traces readers.
func (s *Server) submit(specs []wire.TrialSpec, record *wire.RecordSpec, tctx context.Context) (*job, error) {
	if tctx == nil {
		tctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errServerClosed
	}
	s.nextID++
	var id [24]byte
	j := newJob(string(strconv.AppendInt(append(id[:0], 'j'), s.nextID, 10)), s.nextID, specs)
	j.record = record
	tctx, j.span = s.cfg.Tracer.Start(tctx, "job")
	j.tctx = tctx
	if j.span != nil {
		j.traceID = j.span.Context().Trace.String()
		j.span.SetAttr("job", j.id)
		j.span.SetAttrInt("trials", int64(len(specs)))
		_, j.queueSpan = s.cfg.Tracer.Start(tctx, "queue-wait")
	}
	s.jobs[j.id] = j
	s.jobWG.Add(1)
	return j, nil
}

// release balances submit's jobWG.Add, exactly once per job.
func (s *Server) release(j *job) { j.release.Do(s.jobWG.Done) }

// drop ends a job that never ran, with err as its cause: the queue refused
// it, or Shutdown began while it was queued.
func (s *Server) drop(j *job, err error) {
	j.cancel(err)
	s.release(j)
	s.retire(j)
}

// enqueue hands a job to the queue workers. Holding the mutex while sending
// (non-blocking) makes "closed" and "in the queue" mutually exclusive:
// after Shutdown sets closed no job can slip into the queue behind the
// drain, so the drain's final sweep really sees every queued job.
func (s *Server) enqueue(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errServerClosed
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return errQueueFull
	}
}

// retire records a job's terminal transition, bounding how many finished
// jobs (and their result payloads) stay addressable via GET /v1/jobs: the
// oldest terminal jobs beyond Config.JobHistory are forgotten, so a
// long-running daemon's memory tracks load, not lifetime request count.
func (s *Server) retire(j *job) {
	j.closeTrace()
	st := j.Status()
	lg := s.cfg.Logger.With(tracing.LogAttrs(j.tctx)...)
	switch st.State {
	case JobFailed:
		lg.Error("job failed", "job", j.id, "error", st.Error, "completed", st.Completed, "total", st.Total)
	case JobCanceled:
		lg.Warn("job canceled", "job", j.id, "error", st.Error)
	default:
		lg.Info("job done", "job", j.id,
			"completed", st.Completed, "total", st.Total,
			"cache_hits", st.CacheHits, "cache_misses", st.CacheMisses)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retired = append(s.retired, j.id)
	for len(s.retired) > s.cfg.JobHistory {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
}

var (
	errServerClosed = errors.New("service: server is shutting down")
	errQueueFull    = errors.New("service: job queue is full")
)

// Shutdown stops the server: submissions are refused immediately, queue
// workers finish the job they are on and exit, and still-queued jobs are
// canceled. If ctx expires before the drain completes, the server's base
// context is canceled, which makes the sweep pool stop dispatching new
// trials (in-flight trials finish) and surfaces context.Canceled on the
// aborted jobs. Every goroutine the server started has exited by the time
// Shutdown returns; the returned error is ctx's error when the forced path
// was taken.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.quit)
	}
	drained := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		// Workers are gone; whatever is still queued will never run.
		for {
			select {
			case j := <-s.queue:
				s.drop(j, context.Canceled)
			default:
				// enqueue is gated by closed under the mutex, so the queue
				// stays empty from here on and jobWG can only shrink.
				s.jobWG.Wait()
				close(drained)
				return
			}
		}
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel()
		<-drained
	}
	s.cancel()
	return err
}

// Handler returns the /v1 API mux. Every route is instrumented with
// request-count and latency metrics keyed by its pattern (see route).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "POST /v1/runs", "/v1/runs", s.handleRuns)
	s.route(mux, "GET /v1/jobs", "/v1/jobs", s.handleJobs)
	s.route(mux, "GET /v1/jobs/{id}", "/v1/jobs/{id}", s.handleJob)
	s.route(mux, "GET /v1/jobs/{id}/stream", "/v1/jobs/{id}/stream", s.handleJobStream)
	s.route(mux, "GET /v1/jobs/{id}/rounds", "/v1/jobs/{id}/rounds", s.handleJobRounds)
	s.route(mux, "GET /v1/catalog", "/v1/catalog", s.handleCatalog)
	s.route(mux, "GET /v1/healthz", "/v1/healthz", s.handleHealthz)
	s.route(mux, "GET /v1/readyz", "/v1/readyz", s.handleReadyz)
	s.route(mux, "GET /v1/metrics", "/v1/metrics", s.handleMetrics)
	s.route(mux, "GET /v1/traces/{id}", "/v1/traces/{id}", s.handleTrace)
	s.route(mux, "POST /v1/debug/profile", "/v1/debug/profile", s.handleProfileCapture)
	s.route(mux, "GET /v1/debug/profiles", "/v1/debug/profiles", s.handleProfiles)
	s.route(mux, "GET /v1/debug/profiles/{id}", "/v1/debug/profiles/{id}", s.handleProfile)
	return mux
}

// handleTrace serves GET /v1/traces/{id}: the span set of one trace, id
// being either a job ID (resolved to the job's trace) or a bare 32-hex
// trace ID (so a coordinator can be asked about a trace it learned from a
// worker, and vice versa). Spans come from the local ring plus, on a
// coordinator, Config.TraceFetch's best-effort sweep of the workers; the
// merged set is deduplicated by span ID and sorted by start time.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Tracer == nil {
		writeError(w, http.StatusNotFound, errors.New("service: tracing is not enabled on this daemon"))
		return
	}
	id := r.PathValue("id")
	var traceID string
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	switch {
	case ok:
		traceID = j.traceID
	default:
		tid, err := tracing.ParseTraceID(id)
		if err != nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("service: %q is neither a known job nor a trace ID", id))
			return
		}
		traceID = tid.String()
	}
	spans := s.cfg.Tracer.Spans(traceID)
	if s.cfg.TraceFetch != nil {
		spans = append(spans, s.cfg.TraceFetch(r.Context(), traceID)...)
	}
	seen := make(map[string]bool, len(spans))
	dedup := spans[:0]
	for _, d := range spans {
		if seen[d.SpanID] {
			continue
		}
		seen[d.SpanID] = true
		dedup = append(dedup, d)
	}
	sort.SliceStable(dedup, func(a, b int) bool { return dedup[a].Start.Before(dedup[b].Start) })
	writeJSON(w, http.StatusOK, wire.Trace{TraceID: traceID, Spans: dedup})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // a write error means the client went away; nothing to do
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

const maxRequestBytes = 16 << 20 // a grid request is small; 16 MiB is generous

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	var req wire.RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	specs, err := req.Specs()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Join the caller's trace when the request carries a valid traceparent;
	// a malformed header is ignored (the job roots a fresh trace), never 4xx —
	// tracing must not be able to fail a run.
	tctx := context.Background()
	if tp := r.Header.Get(wire.HeaderTraceparent); tp != "" {
		if sc, perr := tracing.ParseTraceparent(tp); perr == nil {
			tctx = tracing.ContextWithRemote(tctx, sc)
		}
	}
	j, err := s.submit(specs, req.Record, tctx)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.metrics.jobsSubmitted.Inc()
	s.cfg.Logger.With(tracing.LogAttrs(j.tctx)...).Info("job submitted",
		"job", j.id, "trials", len(specs), "async", req.Async, "stream", streamParam(r))
	if streamParam(r) {
		s.streamRun(w, r, j)
		return
	}
	if !req.Async && len(specs) <= s.cfg.SyncTrialLimit {
		select {
		case s.syncSem <- struct{}{}:
			s.busy.Add(1)
			s.runJob(j)
			s.busy.Add(-1)
			<-s.syncSem
			st := j.Status()
			switch st.State {
			case JobDone:
				writeJSON(w, http.StatusOK, st)
			default:
				code := http.StatusBadRequest
				if errors.Is(j.errValue(), context.Canceled) {
					code = http.StatusServiceUnavailable
				}
				writeJSON(w, code, st)
			}
			return
		default:
			// Every sync slot is busy: fall through to the queue so inline
			// execution can never oversubscribe the host.
		}
	}
	// Snapshot before enqueue: once queued, a worker may move the job to
	// running (or done) before the 202 is written, and the 202 must report
	// the state the job was accepted in.
	accepted := j.Status()
	if err := s.enqueue(j); err != nil {
		s.drop(j, err)
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, accepted)
}

// maxJobWait caps the hold of GET /v1/jobs/{id}?wait=. Shutdown answers a
// held request at once, but an HTTP server stopped before the service's
// drain begins still waits out the hold, so the cap sits well inside
// spreadd's 30 s default drain.
const maxJobWait = 10 * time.Second

// handleJob serves GET /v1/jobs/{id}. With ?wait=<Go duration> it is a long
// poll: while the job is not terminal the answer is held until the job
// ends, the wait (capped at maxJobWait) elapses, the client goes away, or
// Shutdown begins, and then carries the status of that moment. Without
// wait it answers at once.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown job %q", id))
		return
	}
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		var err error
		if wait, err = time.ParseDuration(v); err != nil || wait < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: wait must be a non-negative Go duration, got %q", v))
			return
		}
	}
	if wait > 0 {
		t := time.NewTimer(min(wait, maxJobWait))
		select {
		case <-j.done:
		case <-t.C:
		case <-r.Context().Done():
		case <-s.quit:
		}
		t.Stop()
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// JobList is the body of GET /v1/jobs: every still-addressable job, WITHOUT
// result payloads (fetch GET /v1/jobs/{id} for those), sorted by submission
// order, plus counts by state. The sort key is the job's numeric sequence,
// so the order is stable and survives any future ID format change.
type JobList struct {
	Jobs    []JobStatus      `json:"jobs"`
	ByState map[JobState]int `json:"by_state"`
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	jl := JobList{Jobs: make([]JobStatus, 0, len(jobs)), ByState: map[JobState]int{}}
	for _, j := range jobs {
		st := j.Status()
		st.Results = nil // listings stay small; results live on /v1/jobs/{id}
		jl.Jobs = append(jl.Jobs, st)
		jl.ByState[st.State]++
	}
	writeJSON(w, http.StatusOK, jl)
}

func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, BuildCatalog())
}

// streamParam reports whether the request opted into a JSONL stream.
func streamParam(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true":
		return true
	}
	return false
}

// handleHealthz is PURE liveness: it answers 200 whenever the process can
// serve a request at all, even mid-shutdown. Orchestrators restart on
// liveness failure — readiness (below) is what gates traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyBody is the body of GET /v1/readyz. The 503 form repeats the reason
// under "error" so generic clients (service.Client included) surface it.
type readyBody struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// handleReadyz is readiness: 503 while the server would refuse a
// submission — shutdown has begun, or the job queue is at capacity — and
// 200 otherwise, so load balancers route work elsewhere exactly when
// POST /v1/runs would bounce.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	switch {
	case closed:
		writeJSON(w, http.StatusServiceUnavailable, readyBody{Status: "shutting_down", Error: "shutting_down"})
	case len(s.queue) >= cap(s.queue):
		writeJSON(w, http.StatusServiceUnavailable, readyBody{Status: "queue_full", Error: "queue_full"})
	default:
		writeJSON(w, http.StatusOK, readyBody{Status: "ready"})
	}
}

// Catalog is the body of GET /v1/catalog: every registered component, each
// listing sorted by name so the output is deterministic.
type Catalog struct {
	Algorithms  []CatalogAlgorithm `json:"algorithms"`
	Adversaries []CatalogAdversary `json:"adversaries"`
	Scenarios   []scenario.Info    `json:"scenarios"`
}

// CatalogAlgorithm describes one registered algorithm.
type CatalogAlgorithm struct {
	Name string        `json:"name"`
	Mode registry.Mode `json:"mode"`
	Doc  string        `json:"doc"`
}

// CatalogAdversary describes one registered adversary.
type CatalogAdversary struct {
	Name  string        `json:"name"`
	Modes registry.Mode `json:"modes"`
	Doc   string        `json:"doc"`
}

// BuildCatalog snapshots the three registries.
func BuildCatalog() Catalog {
	var c Catalog
	for _, a := range registry.Algorithms() {
		c.Algorithms = append(c.Algorithms, CatalogAlgorithm{Name: a.Name, Mode: a.Mode(), Doc: a.Doc})
	}
	for _, a := range registry.Adversaries() {
		c.Adversaries = append(c.Adversaries, CatalogAdversary{Name: a.Name, Modes: a.Modes, Doc: a.Doc})
	}
	for _, sc := range scenario.Scenarios() {
		c.Scenarios = append(c.Scenarios, sc.Info())
	}
	return c
}
