package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"dynspread/internal/cluster"
	"dynspread/internal/service"
	"dynspread/internal/store"
	"dynspread/internal/sweep"
	"dynspread/internal/wire"
)

// cluster-store is the only workload that touches cluster dispatch and the
// durable store. A coordinator drives two in-process spreadd workers, each
// running one job at a time at Parallelism 1. Each repetition opens a fresh
// store and runs a cold phase — every spec dispatched to the workers and
// Put — then a warm phase: store.Open plus the same specs, served entirely
// from the store, repeated and reported as a median. Cold writes sit beside
// warm reads on the same store. Latency is each trial's time from the start
// of its cold run to its result reaching the caller, summarized per run.

const clusterWorkers = 2

// clusterShardSize is the coordinator's shard size. Workers are polled every
// 25 ms, so a shard's result waits for the next poll; shards of 128 trials
// take several poll periods, which keeps that wait a small, steady share.
const clusterShardSize = 128

// clusterSpecs returns n specs: single-source churn and topkis static,
// N=24 K=24, alternating, each pair on one trial seed counting up from
// first.
func clusterSpecs(first int64, n int) []wire.TrialSpec {
	out := make([]wire.TrialSpec, n)
	for i := range out {
		s := wire.TrialSpec{N: 24, K: 24, Algorithm: "single-source", Adversary: "churn"}
		if i%2 == 1 {
			s.Algorithm, s.Adversary = "topkis", "static"
		}
		s.Seed = first + int64(i/2)
		out[i] = s.Normalized()
	}
	return out
}

// repSpecs is repetition k's cold phase, on trial seeds no other
// repetition uses.
func (b *bench) repSpecs(k int) []wire.TrialSpec {
	return clusterSpecs(b.seed*1_000_000+int64(k*b.sz.specs/2), b.sz.specs)
}

// clusterRig is two running workers.
type clusterRig struct {
	workers   []*service.Server
	servers   []*httptest.Server
	urls      []string
	transport *http.Transport
	client    *http.Client
	log       *handlerLog // traced rigs only
}

// startCluster starts the workers, traced when b.tracer is set, and warms
// them with a cold run on specs outside the measured ones.
func (b *bench) startCluster() (*clusterRig, error) {
	rig := &clusterRig{transport: &http.Transport{MaxConnsPerHost: 1}}
	rig.client = &http.Client{Transport: rig.transport}
	if b.tracer != nil {
		rig.log = newHandlerLog()
	}
	for w := 0; w < clusterWorkers; w++ {
		srv := service.New(service.Config{Parallelism: 1, JobWorkers: 1, Tracer: b.tracer})
		var h http.Handler = srv.Handler()
		if b.tracer != nil {
			h = timedHandler(h, b.tracer, rig.log)
		}
		ts := httptest.NewServer(h)
		rig.workers = append(rig.workers, srv)
		rig.servers = append(rig.servers, ts)
		rig.urls = append(rig.urls, ts.URL)
	}
	dir := filepath.Join(b.tmp, "warm-up")
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		rig.close()
		return nil, err
	}
	defer st.Close()
	coord, err := cluster.New(cluster.Config{Workers: rig.urls, HTTPClient: rig.client, Store: st, ShardSize: clusterShardSize})
	if err != nil {
		rig.close()
		return nil, err
	}
	// Negative trial seeds are outside every run's inputs, so set-up does
	// the same work at every seed.
	if _, err := coord.Run(context.Background(), clusterSpecs(-1_000_000, 2*clusterShardSize), nil); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

func (r *clusterRig) close() {
	for i, ts := range r.servers {
		ts.Close()
		r.workers[i].Shutdown(context.Background())
	}
	r.transport.CloseIdleConnections()
}

// repResult is one cold and warm repetition.
type repResult struct {
	cold    time.Duration
	warm    []float64 // seconds
	latency []float64 // ms from the start of the cold run, by spec
	results []wire.TrialResult
	stats   cluster.Stats
}

// rep runs repetition k on a fresh store.
func (b *bench) rep(rig *clusterRig, specs []wire.TrialSpec, k int) (repResult, error) {
	ctx := context.Background()
	dir := filepath.Join(b.tmp, fmt.Sprintf("store-%d", k))
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return repResult{}, err
	}
	coord, err := cluster.New(cluster.Config{Workers: rig.urls, HTTPClient: rig.client, Store: st, ShardSize: clusterShardSize, Tracer: b.tracer})
	if err != nil {
		return repResult{}, err
	}
	r := repResult{latency: make([]float64, len(specs))}
	cctx, span := b.tracer.Start(ctx, "bench.cluster")
	start := time.Now()
	r.results, err = coord.Run(cctx, specs, func(i int, _ wire.TrialResult) { r.latency[i] = ms(time.Since(start)) })
	r.cold = time.Since(start)
	span.EndErr(err)
	r.stats = coord.Stats()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return repResult{}, err
	}
	for i := 0; i < b.sz.warm; i++ {
		d, err := b.warmRun(rig, dir, specs, r.results)
		if err != nil {
			return repResult{}, err
		}
		r.warm = append(r.warm, d.Seconds())
	}
	return r, nil
}

// warmRun re-opens the store and re-runs specs through a coordinator over
// it: every result must come from the store, equal to the cold one.
func (b *bench) warmRun(rig *clusterRig, dir string, specs []wire.TrialSpec, cold []wire.TrialResult) (time.Duration, error) {
	ctx, span := b.tracer.Start(context.Background(), "bench.warm")
	defer span.End()
	start := time.Now()
	_, ospan := b.tracer.Start(ctx, "store.open")
	st, err := store.Open(dir)
	ospan.EndErr(err)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	coord, err := cluster.New(cluster.Config{Workers: rig.urls, HTTPClient: rig.client, Store: st, ShardSize: clusterShardSize, Tracer: b.tracer})
	if err != nil {
		return 0, err
	}
	res, err := coord.Run(ctx, specs, nil)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	if s := coord.Stats(); s.Dispatched != 0 {
		b.problem("warm run dispatched %d trials instead of serving them from the store", s.Dispatched)
	}
	for i := range res {
		var err error
		if !sameResult(res[i], cold[i]) {
			err = fmt.Errorf("warm result %d differs from the cold one", i)
		}
		b.check(err)
	}
	return d, nil
}

// checkRep checks a repetition's cold results: every trial completed, and a
// 5% sample agrees with a cold local re-run.
func (b *bench) checkRep(specs []wire.TrialSpec, r repResult) {
	for i, res := range r.results {
		err := checkCompleted(res)
		if err == nil && i%20 == 0 {
			err = checkCold(specs[i], res)
		}
		b.check(err)
	}
}

func runClusterStore(b *bench) error {
	var rig *clusterRig
	setup := make([]float64, b.sz.setups)
	for k := range setup {
		if rig != nil {
			rig.close()
		}
		start := time.Now()
		var err error
		if rig, err = b.startCluster(); err != nil {
			return err
		}
		setup[k] = time.Since(start).Seconds()
	}
	b.setup(setup)

	var reps []repResult
	runReps := func(from, to int) error {
		for k := from; k < to; k++ {
			specs := b.repSpecs(k)
			r, err := b.rep(rig, specs, k)
			if err != nil {
				return err
			}
			b.checkRep(specs, r)
			reps = append(reps, r)
		}
		return nil
	}
	if !b.traced {
		heap := startHeap()
		if err := runReps(0, b.sz.reps); err != nil {
			return err
		}
		b.metric("live_heap_mb", heap.liveMB(), "MB")
		rig.close()
		var tput []float64
		var lat [][]float64
		for _, r := range reps {
			tput = append(tput, float64(b.sz.specs)/r.cold.Seconds())
			lat = append(lat, r.latency)
		}
		b.metric("throughput_per_s", median(tput), "1/s")
		b.note("throughput of each cold run: %.4g", tput)
		b.batchLatency(lat)
	} else {
		half := max(1, b.sz.reps/2)
		gc := readCPU()
		if err := runReps(0, half); err != nil {
			return err
		}
		b.metric("runtime.gc_cpu_share", gc.gcShareSince(), "ratio")
		rig.close()
		from := b.startTracing()
		var err error
		if rig, err = b.startCluster(); err != nil {
			return err
		}
		since := time.Now()
		if err := runReps(half, 2*half); err != nil {
			return err
		}
		rig.close()
		spans, err := b.stopTracing(from, since)
		if err != nil {
			return err
		}
		var untraced, traced time.Duration
		var shards, retries int64
		for k, r := range reps {
			if k < half {
				untraced += r.cold
				continue
			}
			traced += r.cold
			shards += r.stats.Shards
			retries += r.stats.Retries
		}
		b.metric("trace_overhead", untraced.Seconds()/traced.Seconds(), "ratio")
		b.reportTrials(b.reportSpans(spans), traced, clusterWorkers)
		var busy time.Duration
		for _, s := range spans {
			if s.Name == "run" {
				busy += s.Duration()
			}
		}
		b.metric("cluster.worker_busy_ratio", busy.Seconds()/(traced.Seconds()*clusterWorkers), "ratio")
		b.metric("cluster.poll_requests_per_shard", float64(rig.log.polls)/float64(shards), "count")
		b.metric("cluster.retries", float64(retries), "count")
		specs := b.repSpecs(0)
		st := make([]sweep.Trial, min(64, len(specs)))
		for i := range st {
			st[i] = trialFromSpec(specs[i])
		}
		if err := b.simProbe(st); err != nil {
			return err
		}
		if err := b.probes(); err != nil {
			return err
		}
	}

	var warm []float64
	for _, r := range reps {
		warm = append(warm, r.warm...)
	}
	b.metric("warm_trials_per_s", float64(b.sz.specs)/median(warm), "1/s")

	// The first repetition, dispatched, must equal a local sweep of the same
	// specs; the ratio of their times is the cost of dispatch.
	specs := b.repSpecs(0)
	start := time.Now()
	local, err := wire.RunSpecs(context.Background(), specs, clusterWorkers, nil)
	if err != nil {
		return err
	}
	b.metric("cluster.dispatch_overhead_ratio", reps[0].cold.Seconds()/time.Since(start).Seconds(), "ratio")
	var rows []row
	for i := range local {
		var err error
		if !sameResult(reps[0].results[i], local[i]) {
			err = fmt.Errorf("cluster result %d differs from a local sweep", i)
		}
		b.check(err)
		if i < digestRows {
			rows = append(rows, wireRow(reps[0].results[i]))
		}
	}
	b.digest = digest(rows)
	return nil
}
