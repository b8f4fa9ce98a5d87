// Package cluster is the distributed execution tier above the spreadd
// service: a coordinator that takes the same wire-form trial lists and
// grids a single daemon accepts, plans deterministic shards (key-sorted,
// size-balanced — see Plan), dispatches them concurrently to a pool of
// spreadd workers through service.Client, and merges the streamed per-trial
// results back into input order, bit-identical to a local sweep.Run over
// the same specs. Each worker has one shard in flight at a time: the shard
// is submitted as an async job, and its status request is a long poll
// (GET /v1/jobs/{id}?wait=) that the worker answers the moment the job
// ends, so the worker's next shard follows without an idle poll interval.
//
// Fault tolerance is per shard: a failed dispatch is retried on a
// deterministic backoff schedule and re-enqueued for ANY live worker, so a
// worker that dies mid-sweep has its outstanding shards re-dispatched to
// the survivors; a worker that keeps failing is marked dead and stops
// receiving work. Permanent errors (HTTP 4xx — the request itself is bad)
// fail the run immediately, matching sweep.Run's first-error-wins contract;
// a 404 while polling an accepted shard means the worker restarted and lost
// it, so that shard is retried like any transient failure.
//
// An optional persistent result store (internal/store) short-circuits
// every trial whose content address is already on disk and logs every newly
// computed result, which makes a sweep resumable after an interruption —
// and makes the coordinator a cross-run cache: re-running a finished grid
// performs zero simulations.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynspread/internal/obs"
	"dynspread/internal/service"
	"dynspread/internal/stats"
	"dynspread/internal/store"
	"dynspread/internal/tracing"
	"dynspread/internal/wire"
)

// Config describes a coordinator.
type Config struct {
	// Workers are the base URLs of the spreadd workers (required, >= 1).
	Workers []string
	// HTTPClient, when non-nil, is shared by every worker client.
	HTTPClient *http.Client
	// RequestTimeout backstops every single worker request made with a
	// deadline-free context (default 2m). Shards are submitted
	// asynchronously, and each status request asks the worker to hold it
	// for at most half this bound (and at most 10 s), so no request
	// legitimately comes near it and it never caps shard execution time.
	RequestTimeout time.Duration
	// ShardSize is the target trials per shard (<= 0 = DefaultShardSize).
	ShardSize int
	// Backoff is the deterministic per-shard retry schedule: attempt i
	// sleeps Backoff[min(i, len-1)] before re-dispatch. Defaults to
	// {0, 100ms, 400ms, 1s}. A shard that fails 4 × len(Workers) dispatch
	// attempts fails the run.
	Backoff []time.Duration
	// FailureLimit is the number of CONSECUTIVE failures after which a
	// worker is marked dead and stops receiving shards (default 3).
	FailureLimit int
	// Poll is the least time between two status requests for one shard
	// (default 25ms). Each request is held by the worker until the shard's
	// job ends (see RequestTimeout), so a result arrives as soon as it is
	// ready; Poll paces only a worker that answers at once, such as an
	// older build that ignores the hold.
	Poll time.Duration
	// Store, when non-nil, is the persistent result log: trials already
	// stored are served from it without dispatch, and every new result is
	// appended, making the sweep resumable and cached across runs. A
	// coordinator behind a service (spreadd -peers) leaves it nil: the
	// service's run cache (service.Config.Store) already looked each trial
	// up once.
	Store *store.Store
	// Metrics, when non-nil, receives the coordinator's metric families
	// (aggregate counters plus per-worker dispatch/retry/failure/health,
	// labeled by worker base URL). A coordinator-mode spreadd passes the
	// same registry its service layer exposes on GET /v1/metrics.
	Metrics *obs.Registry
	// Tracer, when non-nil, records a "cluster.run" span per Run with one
	// "shard" child per dispatch attempt; retries and worker deaths become
	// events on the run span. Dispatches inherit the span context, so the
	// service.Client hop propagates it to workers (traceparent header) and
	// their job spans join the same trace.
	Tracer *tracing.Tracer
	// Logger receives structured dispatch-lifecycle logs (run started/done,
	// shard retries, worker deaths) carrying trace_id/span_id fields. Nil
	// discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if len(c.Backoff) == 0 {
		c.Backoff = []time.Duration{0, 100 * time.Millisecond, 400 * time.Millisecond, time.Second}
	}
	if c.FailureLimit <= 0 {
		c.FailureLimit = 3
	}
	if c.Poll <= 0 {
		c.Poll = 25 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Stats are cumulative coordinator counters across Run calls.
type Stats struct {
	// Trials is the total number of requested trials (duplicates included);
	// StoreHits of them were served from the persistent store and Deduped
	// shared another instance's execution; Dispatched were sent to workers.
	Trials, StoreHits, Deduped, Dispatched int64
	// WorkerCacheHits counts dispatched trials the workers answered from
	// their own run caches rather than simulating.
	WorkerCacheHits int64
	// Shards and Retries count dispatched shards and re-dispatch attempts;
	// DeadWorkers counts workers marked dead.
	Shards, Retries, DeadWorkers int64
}

// Coordinator fans trial lists out over a worker pool. Safe for concurrent
// use; create one with New.
type Coordinator struct {
	cfg     Config
	clients []*service.Client
	metrics *clusterMetrics // nil when Config.Metrics is nil; methods are nil-safe

	mu       sync.Mutex
	failures []int  // consecutive failures per worker
	dead     []bool // workers marked dead

	stats struct {
		trials, storeHits, deduped, dispatched atomic.Int64
		workerCacheHits                        atomic.Int64
		shards, retries, deadWorkers           atomic.Int64
	}
}

// New builds a coordinator over cfg.Workers.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:      cfg,
		clients:  make([]*service.Client, len(cfg.Workers)),
		failures: make([]int, len(cfg.Workers)),
		dead:     make([]bool, len(cfg.Workers)),
	}
	for i, base := range cfg.Workers {
		c.clients[i] = &service.Client{
			BaseURL:    base,
			HTTPClient: cfg.HTTPClient,
			Timeout:    cfg.RequestTimeout,
		}
	}
	if cfg.Metrics != nil {
		c.metrics = newClusterMetrics(cfg.Metrics, cfg.Workers, c)
	}
	return c, nil
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Trials:          c.stats.trials.Load(),
		StoreHits:       c.stats.storeHits.Load(),
		Deduped:         c.stats.deduped.Load(),
		Dispatched:      c.stats.dispatched.Load(),
		WorkerCacheHits: c.stats.workerCacheHits.Load(),
		Shards:          c.stats.shards.Load(),
		Retries:         c.stats.retries.Load(),
		DeadWorkers:     c.stats.deadWorkers.Load(),
	}
}

// Workers returns (alive, total) worker counts.
func (c *Coordinator) Workers() (alive, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.dead {
		if !d {
			alive++
		}
	}
	return alive, len(c.dead)
}

// recordFailure notes one failed dispatch on worker w and reports whether
// the worker just crossed the failure limit and is now dead.
func (c *Coordinator) recordFailure(w int) (nowDead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead[w] {
		return false
	}
	c.failures[w]++
	nowDead = c.failures[w] >= c.cfg.FailureLimit
	if nowDead {
		c.dead[w] = true
		c.stats.deadWorkers.Add(1)
	}
	c.metrics.failed(w, nowDead)
	return nowDead
}

// reviveDeadWorkers puts every dead worker back in rotation on probation:
// one more failure re-kills it, one success fully restores it.
func (c *Coordinator) reviveDeadWorkers() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for w := range c.dead {
		if c.dead[w] {
			c.dead[w] = false
			c.failures[w] = c.cfg.FailureLimit - 1
			c.metrics.healthy(w)
		}
	}
}

func (c *Coordinator) recordSuccess(w int) {
	c.mu.Lock()
	c.failures[w] = 0
	c.mu.Unlock()
	c.metrics.healthy(w)
}

// Run executes wire-form trials across the worker pool and returns their
// results in input order, bit-identical to a local sweep over the same
// specs. onResult, when non-nil, streams each trial's result as soon as it
// is known (store hits first, then shard completions) — calls are
// concurrent and unordered, matching the sweep layer's OnResult contract.
// The first permanent error (bad spec, exhausted retries, every worker
// dead, cancellation) fails the run and no results are returned.
func (c *Coordinator) Run(ctx context.Context, specs []wire.TrialSpec, onResult func(i int, r wire.TrialResult)) ([]wire.TrialResult, error) {
	return c.RunSpecs(ctx, specs, nil, onResult)
}

// RunSpecs is Run with an optional flight recorder: a non-nil rec goes out
// on every shard so each result carries its round series, and store.Lookup
// keeps the run away from the store. Its signature is the service layer's
// Runner, which is how a coordinator-mode spreadd shards POST /v1/runs jobs
// transparently: the service's queueing/caching/progress machinery calls
// this instead of the in-process sweep pool.
func (c *Coordinator) RunSpecs(ctx context.Context, specs []wire.TrialSpec, rec *wire.RecordSpec, onResult func(i int, r wire.TrialResult)) ([]wire.TrialResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The run span parents on whatever the caller carries (a coordinator-mode
	// spreadd's job/run spans) and is in turn the parent every shard dispatch
	// inherits; returning through finish stamps the outcome exactly once.
	ctx, runSpan := c.cfg.Tracer.Start(ctx, "cluster.run")
	runSpan.SetAttrInt("trials", int64(len(specs)))
	lg := c.cfg.Logger.With(tracing.LogAttrs(ctx)...)
	finish := func(results []wire.TrialResult, err error) ([]wire.TrialResult, error) {
		runSpan.EndErr(err)
		if err != nil {
			lg.Error("cluster run failed", "trials", len(specs), "error", err.Error())
		} else {
			lg.Info("cluster run done", "trials", len(specs))
		}
		return results, err
	}
	c.stats.trials.Add(int64(len(specs)))
	for i, s := range specs {
		if s.Replay {
			return finish(nil, fmt.Errorf("cluster: spec %d replays a recorded trace, which is not part of the wire schema", i))
		}
		if err := s.Validate(); err != nil {
			return finish(nil, fmt.Errorf("%w (spec %d)", err, i))
		}
	}
	results := make([]wire.TrialResult, len(specs))
	// A nil *store.Store must reach Lookup as a nil Results, not a typed nil.
	var stored store.Results
	if c.cfg.Store != nil {
		stored = c.cfg.Store
	}
	// The store is consulted once per unique key, and the snapshot taken
	// here is what gets served — a concurrent writer adding a key after this
	// pass cannot make a trial both store-served and dispatched.
	b := store.Lookup(specs, stored, rec, func(i int, r wire.TrialResult) {
		results[i] = r
		if onResult != nil {
			onResult(i, r)
		}
	})
	c.stats.deduped.Add(int64(len(specs) - b.Unique))
	c.stats.storeHits.Add(int64(b.Hits))
	storeHits := b.Unique - len(b.Misses)

	plan := planBatch(b, c.cfg.ShardSize)
	for i := range plan {
		plan[i].Record = rec
	}
	runSpan.SetAttrInt("store_hits", int64(storeHits))
	runSpan.SetAttrInt("shards", int64(len(plan)))
	if len(plan) == 0 {
		return finish(results, nil)
	}
	lg.Info("cluster run started", "trials", len(specs), "shards", len(plan), "store_hits", storeHits)
	c.stats.shards.Add(int64(len(plan)))
	if err := c.dispatch(ctx, plan, b.Deliver); err != nil {
		return finish(nil, err)
	}
	return finish(results, nil)
}

// shardAttempt pairs a planned shard with how many times it has been
// dispatched already.
type shardAttempt struct {
	shard   wire.ShardRequest
	attempt int
}

// dispatch drives the shard plan to completion over the live workers,
// calling deliver (serialized per shard, concurrent across shards) for
// every completed trial.
func (c *Coordinator) dispatch(ctx context.Context, plan []wire.ShardRequest, deliver func(key string, res wire.TrialResult) error) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Retries and worker deaths are moments, not extents: events on the run
	// span (carried by ctx), next to structured warnings with the same IDs.
	runSpan := tracing.SpanFromContext(ctx)
	lg := c.cfg.Logger.With(tracing.LogAttrs(ctx)...)
	// A worker marked dead in an earlier Run gets one probation shard per
	// dispatch: a long-lived coordinator (spreadd -peers) must pick a
	// restarted worker back up, and the alive accounting below assumes
	// every goroutine it spawns starts alive.
	c.reviveDeadWorkers()

	// Every shard is in exactly one place at a time (the queue, a worker's
	// hands, or a backoff timer), so the buffer can never overflow.
	work := make(chan shardAttempt, len(plan))
	for _, sh := range plan {
		work <- shardAttempt{shard: sh}
	}
	var (
		outstanding atomic.Int64 // shards not yet completed
		alive       atomic.Int64 // workers not marked dead
		done        = make(chan struct{})
		failOnce    sync.Once
		failErr     error
	)
	outstanding.Store(int64(len(plan)))
	alive.Store(int64(len(c.clients)))
	fail := func(err error) {
		failOnce.Do(func() { failErr = err; cancel() })
	}

	var wg sync.WaitGroup
	for w := range c.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-done:
					return
				case sa := <-work:
					c.metrics.dispatched(w)
					if err := c.runShard(runCtx, w, sa.shard, deliver); err != nil {
						if runCtx.Err() != nil {
							return
						}
						var fe *deliveryError
						if errors.As(err, &fe) {
							// Coordinator-local (store/merge) failure: another
							// worker cannot fix it, and retrying would deliver
							// the shard's earlier trials twice.
							fail(fmt.Errorf("cluster: shard %d/%d: %w", sa.shard.Shard, sa.shard.Shards, fe.err))
							return
						}
						if service.IsPermanent(err) {
							fail(fmt.Errorf("cluster: shard %d/%d: %w", sa.shard.Shard, sa.shard.Shards, err))
							return
						}
						sa.attempt++
						c.stats.retries.Add(1)
						c.metrics.retried(w)
						runSpan.Event("retry",
							"worker", c.cfg.Workers[w],
							"shard", strconv.Itoa(sa.shard.Shard),
							"attempt", strconv.Itoa(sa.attempt),
							"error", err.Error())
						lg.Warn("shard dispatch failed, retrying",
							"worker", c.cfg.Workers[w], "shard", sa.shard.Shard,
							"attempt", sa.attempt, "error", err.Error())
						if sa.attempt >= 4*len(c.cfg.Workers) {
							fail(fmt.Errorf("cluster: shard %d/%d failed %d times, giving up: %w", sa.shard.Shard, sa.shard.Shards, sa.attempt, err))
							return
						}
						// Re-enqueue on the deterministic backoff schedule;
						// the timer hands the shard to whichever worker is
						// free then — re-dispatch to the survivors is this
						// line, not a special case.
						backoff := c.cfg.Backoff[min(sa.attempt-1, len(c.cfg.Backoff)-1)]
						time.AfterFunc(backoff, func() { work <- sa })
						if c.recordFailure(w) {
							runSpan.Event("worker_dead", "worker", c.cfg.Workers[w])
							lg.Warn("worker marked dead", "worker", c.cfg.Workers[w])
							// This worker is dead; the re-enqueued shard goes
							// to a survivor — unless there are none.
							if alive.Add(-1) == 0 {
								fail(fmt.Errorf("cluster: all %d workers dead with %d shards outstanding", len(c.clients), outstanding.Load()))
							}
							return
						}
						continue
					}
					c.recordSuccess(w)
					c.metrics.shardDone()
					if outstanding.Add(-1) == 0 {
						close(done)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if failErr != nil {
		return failErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// runShard executes one shard on worker w: an async submit, long-polled
// status requests to terminal state, and delivery of every per-trial
// result.
func (c *Coordinator) runShard(ctx context.Context, w int, sh wire.ShardRequest, deliver func(key string, res wire.TrialResult) error) (err error) {
	// One span per dispatch ATTEMPT (a retried shard has several), dispatched
	// under its context: service.Client stamps it onto the request as a
	// traceparent header, so the worker's job spans become its children.
	ctx, span := c.cfg.Tracer.Start(ctx, "shard")
	if span != nil {
		span.SetAttr("worker", c.cfg.Workers[w])
		span.SetAttrInt("shard", int64(sh.Shard))
		span.SetAttrInt("trials", int64(len(sh.Trials)))
		defer func() { span.EndErr(err) }()
	}
	client := c.clients[w]
	req := sh.RunRequest()
	// Async keeps the submit short, and WaitJob fits each held status
	// request inside RequestTimeout, so it never caps shard execution time.
	req.Async = true
	st, err := client.Run(ctx, req)
	if err != nil {
		return err
	}
	if st.State != service.JobDone {
		st, err = client.WaitJob(ctx, st.ID, c.cfg.Poll)
		var he *service.HTTPError
		if errors.As(err, &he) && he.StatusCode == http.StatusNotFound {
			// The worker no longer knows the job it accepted: it restarted
			// and lost the shard. A re-dispatch can still run it, so the
			// cause is wrapped with %v to keep it from reading as a
			// permanent 4xx.
			return fmt.Errorf("cluster: worker %s lost shard %d: %v", c.cfg.Workers[w], sh.Shard, err)
		}
		if err != nil {
			return err
		}
	}
	switch st.State {
	case service.JobDone:
	case service.JobFailed:
		// A failed job is deterministic (bad spec, unknown registry name):
		// re-running it elsewhere fails identically.
		return &service.HTTPError{StatusCode: 400, Method: "JOB", Path: "/v1/jobs/" + st.ID, Message: st.Error}
	default:
		return fmt.Errorf("cluster: worker %s ended shard %d in state %q: %s", c.cfg.Workers[w], sh.Shard, st.State, st.Error)
	}
	if len(st.Results) != len(sh.Trials) {
		return fmt.Errorf("cluster: worker %s returned %d results for %d trials", c.cfg.Workers[w], len(st.Results), len(sh.Trials))
	}
	c.stats.dispatched.Add(int64(len(sh.Trials)))
	c.stats.workerCacheHits.Add(int64(st.CacheHits))
	for i, res := range st.Results {
		if err := deliver(sh.Keys[i], res); err != nil {
			return &deliveryError{err: err}
		}
	}
	return nil
}

// FetchSpans collects the spans of one trace from every worker's
// GET /v1/traces/{id}, concurrently and best-effort: a worker that is down,
// has tracing disabled, or has evicted the trace just contributes nothing.
// A coordinator-mode spreadd installs this as service.Config.TraceFetch,
// which is what makes the coordinator's trace endpoint return the whole
// distributed trace in one response.
func (c *Coordinator) FetchSpans(ctx context.Context, traceID string) []tracing.SpanData {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		out []tracing.SpanData
	)
	for _, client := range c.clients {
		wg.Add(1)
		go func(client *service.Client) {
			defer wg.Done()
			tr, err := client.Trace(ctx, traceID)
			if err != nil {
				return
			}
			mu.Lock()
			out = append(out, tr.Spans...)
			mu.Unlock()
		}(client)
	}
	wg.Wait()
	return out
}

// deliveryError marks a coordinator-local failure (persisting or merging a
// result) as distinct from a worker failure: dispatch must fail the run
// instead of blaming — and retrying on — a healthy worker.
type deliveryError struct{ err error }

func (e *deliveryError) Error() string { return e.err.Error() }
func (e *deliveryError) Unwrap() error { return e.err }

// Aggregate summarizes one metric over wire-form results, producing
// summaries bit-identical to stats.Summarize over the same metric of the
// equivalent local sweep results.
func Aggregate(results []wire.TrialResult, metric func(wire.TrialResult) float64) stats.Summary {
	xs := make([]float64, 0, len(results))
	for _, r := range results {
		xs = append(xs, metric(r))
	}
	return stats.Summarize(xs)
}

// Common metric extractors for Aggregate.
var (
	// Messages extracts the trial's total message count.
	Messages = func(r wire.TrialResult) float64 { return float64(r.Metrics.Messages) }
	// Rounds extracts the trial's round count.
	Rounds = func(r wire.TrialResult) float64 { return float64(r.Rounds) }
	// AmortizedPerToken extracts Messages/K.
	AmortizedPerToken = func(r wire.TrialResult) float64 { return r.AmortizedPerToken }
)
