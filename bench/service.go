package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynspread/internal/service"
	"dynspread/internal/sweep"
	"dynspread/internal/wire"
)

// service-open drives an in-process spreadd over loopback HTTP. Simulation
// takes well under a millisecond per request, so HTTP, the JSON codec, job
// bookkeeping, the run cache and streaming dominate. Latency comes from an
// open loop at the reference rate, timed from each request's due time;
// throughput from a closed loop of nproc clients. Both send the same mix:
//
//	55% cached single trials, from a hot set of 64 specs warmed in set-up
//	30% fresh single trials
//	10% streamed jobs of 16 fresh trials (POST /v1/runs?stream=1)
//	 5% recorded single trials (flight recorder at stride 4)
//
// Cached and fresh requests read and write the same run cache.

// serviceShapes are the shapes fresh and hot trials draw from.
var serviceShapes = []wire.TrialSpec{
	{N: 16, K: 8, Algorithm: "single-source", Adversary: "churn"},
	{N: 16, K: 8, Algorithm: "single-source", Adversary: "markovian"},
	{N: 16, K: 8, Algorithm: "single-source", Adversary: "static"},
	{N: 16, K: 8, Sources: 4, Algorithm: "multi-source", Adversary: "churn"},
}

const (
	classCached = iota
	classFresh
	classStream
	classRecorded
)

var classNames = []string{"cached", "fresh", "stream", "recorded"}

const (
	hotSetSize   = 64
	streamTrials = 16
	// ladderLimitMs is the p99 latency a ladder step must stay within.
	ladderLimitMs = 25
)

// ladderRates are the open-loop rates, requests/s, the max-rate search
// climbs in traced runs.
var ladderRates = []float64{200, 300, 450, 675, 1000, 1500}

// Phases of a run. Each has its own range of trial seeds, so every fresh
// trial of a run is distinct and can never be served from the cache.
const (
	phaseOpen = iota
	phaseClosed
	phaseLadder // + ladder step index
)

func phaseSeed(seed int64, phase int) int64 {
	base := seed * 1_000_000
	switch phase {
	case phaseOpen:
		return base + hotSetSize
	case phaseClosed:
		return base + 400_000
	default:
		return base + 800_000 + int64(phase-phaseLadder)*30_000
	}
}

// hotSet is the 64 specs cached requests draw from.
func hotSet(seed int64) []wire.TrialSpec {
	hot := make([]wire.TrialSpec, hotSetSize)
	for i := range hot {
		hot[i] = serviceShapes[i%len(serviceShapes)]
		hot[i].Seed = seed*1_000_000 + int64(i)
		hot[i] = hot[i].Normalized()
	}
	return hot
}

// request is one HTTP request of the mix.
type request struct {
	id    int // unique within a run
	class int
	specs []wire.TrialSpec
}

// mixBlock is the request mix: every block of 20 consecutive requests holds
// exactly these classes, in a seeded random order, so no run's mix drifts
// from the stated shares.
var mixBlock = []int{
	classCached, classCached, classCached, classCached, classCached, classCached,
	classCached, classCached, classCached, classCached, classCached,
	classFresh, classFresh, classFresh, classFresh, classFresh, classFresh,
	classStream, classStream,
	classRecorded,
}

// traffic generates a phase's requests in order. Request i depends only on
// the seed, the phase and i.
type traffic struct {
	mu        sync.Mutex
	rng       *rand.Rand
	hot       []wire.TrialSpec
	block     []int // classes left in the current mix block
	idBase, n int
	fresh     int64 // next fresh trial seed
}

func newTraffic(seed int64, phase int, hot []wire.TrialSpec) *traffic {
	return &traffic{
		rng:    rand.New(rand.NewPCG(uint64(seed), uint64(phase))),
		hot:    hot,
		idBase: phase * 10_000_000,
		fresh:  phaseSeed(seed, phase),
	}
}

func (t *traffic) next() request {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := request{id: t.idBase + t.n}
	t.n++
	if len(t.block) == 0 {
		t.block = slices.Clone(mixBlock)
		t.rng.Shuffle(len(t.block), func(i, j int) { t.block[i], t.block[j] = t.block[j], t.block[i] })
	}
	r.class, t.block = t.block[0], t.block[1:]
	switch r.class {
	case classCached:
		r.specs = []wire.TrialSpec{t.hot[t.rng.IntN(len(t.hot))]}
	case classStream:
		r.specs = t.freshSpecs(streamTrials)
	default:
		r.specs = t.freshSpecs(1)
	}
	return r
}

func (t *traffic) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = t.next()
	}
	return out
}

func (t *traffic) freshSpecs(n int) []wire.TrialSpec {
	out := make([]wire.TrialSpec, n)
	for j := range out {
		out[j] = serviceShapes[t.rng.IntN(len(serviceShapes))]
		out[j].Seed = t.fresh
		out[j] = out[j].Normalized()
		t.fresh++
	}
	return out
}

// serviceRig is one running spreadd with a client.
type serviceRig struct {
	srv       *service.Server
	ts        *httptest.Server
	transport *http.Transport
	client    *service.Client
	log       *handlerLog // traced rigs only

	hits, misses atomic.Int64 // cache outcomes of synchronous requests
}

// startService starts a server, traced when b.tracer is set, and warms its
// cache with the hot set. It returns the hot-set results as served.
func (b *bench) startService(hot []wire.TrialSpec) (*serviceRig, []wire.TrialResult, error) {
	srv := service.New(service.Config{Parallelism: b.procs, JobWorkers: b.procs, Tracer: b.tracer})
	rig := &serviceRig{srv: srv, transport: &http.Transport{MaxConnsPerHost: b.procs, MaxIdleConnsPerHost: b.procs}}
	var h http.Handler = srv.Handler()
	var rt http.RoundTripper = rig.transport
	if b.tracer != nil {
		rig.log = newHandlerLog()
		h = timedHandler(h, b.tracer, rig.log)
		rt = taggedTransport{rig.transport}
	}
	rig.ts = httptest.NewServer(h)
	rig.client = &service.Client{BaseURL: rig.ts.URL, HTTPClient: &http.Client{Transport: rt}, Timeout: time.Minute}
	// Batches of 16, the service's default synchronous limit.
	const batch = 16
	var served []wire.TrialResult
	for i := 0; i < len(hot); i += batch {
		res, err := rig.do(context.Background(), request{class: classFresh, specs: hot[i:min(i+batch, len(hot))]})
		if err != nil {
			rig.close()
			return nil, nil, err
		}
		served = append(served, res...)
	}
	return rig, served, nil
}

func (r *serviceRig) close() {
	r.ts.Close()
	r.srv.Shutdown(context.Background())
	r.transport.CloseIdleConnections()
}

// do sends one request and returns its results in spec order.
func (r *serviceRig) do(ctx context.Context, req request) ([]wire.TrialResult, error) {
	if req.class == classStream {
		return r.stream(ctx, req.specs)
	}
	rr := wire.RunRequest{Trials: req.specs}
	if req.class == classRecorded {
		rr.Record = &wire.RecordSpec{Stride: 4}
	}
	st, err := r.client.Run(ctx, rr)
	if err != nil {
		return nil, err
	}
	if st.State == service.JobQueued || st.State == service.JobRunning {
		if st, err = r.client.WaitJob(ctx, st.ID, 5*time.Millisecond); err != nil {
			return nil, err
		}
	}
	if st.State != service.JobDone {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	r.hits.Add(int64(st.CacheHits))
	r.misses.Add(int64(st.CacheMisses))
	return st.Results, nil
}

func (r *serviceRig) stream(ctx context.Context, specs []wire.TrialSpec) ([]wire.TrialResult, error) {
	out := make([]wire.TrialResult, len(specs))
	got := 0
	state := ""
	err := r.client.RunStream(ctx, wire.RunRequest{Trials: specs}, func(ev wire.StreamEvent) error {
		switch ev.Type {
		case "result":
			if ev.Result == nil || ev.Index < 0 || ev.Index >= len(out) {
				return fmt.Errorf("malformed result event for index %d", ev.Index)
			}
			out[ev.Index] = *ev.Result
			got++
		case "overflow":
			return errors.New("stream overflowed")
		case "done":
			state = ev.State
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if state != string(service.JobDone) || got != len(specs) {
		return nil, fmt.Errorf("stream ended in state %q with %d of %d results", state, got, len(specs))
	}
	return out, nil
}

// serviceCheck verifies responses. Cheap checks run inline; 5% of fresh
// trials are kept and re-run cold after the phase.
type serviceCheck struct {
	refs map[string]wire.TrialResult // hot-set key → local result

	mu      sync.Mutex
	sampled []wire.TrialResult
	prefix  map[int][]wire.TrialResult // by open-loop request index, for the digest
}

func (c *serviceCheck) verify(req request, res []wire.TrialResult) error {
	if len(res) != len(req.specs) {
		return fmt.Errorf("%d results for %d specs", len(res), len(req.specs))
	}
	for j, r := range res {
		key := wire.Key(req.specs[j])
		if wire.Key(r.Trial) != key {
			return fmt.Errorf("result %d answers a different spec", j)
		}
		if err := checkCompleted(r); err != nil {
			return err
		}
		switch req.class {
		case classCached:
			if !sameResult(r, c.refs[key]) {
				return fmt.Errorf("cached result for seed %d differs from a fresh local run", r.Trial.Seed)
			}
			continue
		case classRecorded:
			if r.RoundSeries.Len() == 0 {
				return fmt.Errorf("recorded trial seed %d came back without a round series", r.Trial.Seed)
			}
		}
		if req.specs[j].Seed%20 == 0 {
			c.mu.Lock()
			c.sampled = append(c.sampled, r)
			c.mu.Unlock()
		}
	}
	return nil
}

// serve sends one request, verifies the response and records the outcome.
// It returns the request's client-side time and whether it succeeded.
func (b *bench) serve(rig *serviceRig, chk *serviceCheck, req request) (time.Duration, bool) {
	ctx := context.Background()
	if rig.log != nil {
		ctx = withTag(ctx, req.id)
	}
	ctx, span := b.tracer.Start(ctx, "bench.request")
	defer span.End()
	span.SetAttr("class", classNames[req.class])
	start := time.Now()
	res, err := rig.do(ctx, req)
	d := time.Since(start)
	if err == nil {
		err = chk.verify(req, res)
	}
	b.check(err)
	if err == nil && req.id < digestRows {
		chk.mu.Lock()
		chk.prefix[req.id] = res
		chk.mu.Unlock()
	}
	return d, err == nil
}

// openPhase runs reqs open-loop at rate and returns the per-request samples
// and client-side times.
func (b *bench) openPhase(rig *serviceRig, chk *serviceCheck, reqs []request, rate float64, grace time.Duration) ([]openSample, []time.Duration) {
	client := make([]time.Duration, len(reqs))
	scheduleEnd := time.Duration(float64(len(reqs)) / rate * float64(time.Second))
	samples := openLoop(rate, len(reqs), b.procs, scheduleEnd+grace, func(i int) bool {
		d, ok := b.serve(rig, chk, reqs[i])
		client[i] = d
		return ok
	})
	return samples, client
}

// closedPhase runs nproc closed-loop clients for dur and returns the median
// over one-second windows of requests completed per second.
func (b *bench) closedPhase(rig *serviceRig, chk *serviceCheck, t *traffic, dur time.Duration) float64 {
	rates := closedLoop(b.procs, dur, time.Second, func() bool {
		_, ok := b.serve(rig, chk, t.next())
		return ok
	})
	b.note("requests/s in each closed-loop window: %.4g", rates)
	return median(rates)
}

func runServiceOpen(b *bench) error {
	ctx := context.Background()
	hot := hotSet(b.seed)
	chk := &serviceCheck{prefix: map[int][]wire.TrialResult{}}
	var rig *serviceRig
	var served []wire.TrialResult
	setup := make([]float64, b.sz.setups)
	for k := range setup {
		if rig != nil {
			rig.close()
		}
		start := time.Now()
		refs, err := wire.RunSpecs(ctx, hot, b.procs, nil)
		if err != nil {
			return err
		}
		if rig, served, err = b.startService(hot); err != nil {
			return err
		}
		setup[k] = time.Since(start).Seconds()
		chk.refs = map[string]wire.TrialResult{}
		for i, r := range refs {
			chk.refs[wire.Key(hot[i])] = r
		}
	}
	b.setup(setup)
	for i, r := range served {
		var err error
		if !sameResult(r, chk.refs[wire.Key(hot[i])]) {
			err = fmt.Errorf("served hot-set result %d differs from a local run", i)
		}
		b.check(err)
	}

	nOpen := int(b.sz.rate * b.sz.phase.Seconds())
	openReqs := newTraffic(b.seed, phaseOpen, hot).take(nOpen)
	if !b.traced {
		heap := startHeap()
		samples, _ := b.openPhase(rig, chk, openReqs, b.sz.rate, 5*time.Second)
		b.reportOpen(openReqs, samples, b.sz.rate)
		tput := b.closedPhase(rig, chk, newTraffic(b.seed, phaseClosed, hot), b.sz.phase)
		b.metric("live_heap_mb", heap.liveMB(), "MB")
		b.metric("throughput_per_s", tput, "1/s")
		rig.close()
	} else {
		half := b.sz.phase / 2
		gc := readCPU()
		untraced := b.closedPhase(rig, chk, newTraffic(b.seed, phaseClosed, hot), half)
		b.metric("runtime.gc_cpu_share", gc.gcShareSince(), "ratio")
		b.ladder(rig, chk, hot)
		rig.close()

		from := b.startTracing()
		rig, _, err := b.startService(hot)
		if err != nil {
			return err
		}
		phaseStart := time.Now()
		traced := b.closedPhase(rig, chk, newTraffic(b.seed, phaseClosed, hot), half)
		b.metric("trace_overhead", traced/untraced, "ratio")
		openReqs = openReqs[:min(len(openReqs), int(b.sz.rate*half.Seconds()))]
		samples, client := b.openPhase(rig, chk, openReqs, b.sz.rate, 5*time.Second)
		wall := time.Since(phaseStart)
		b.reportOpen(openReqs, samples, b.sz.rate)
		rig.close()
		spans, err := b.stopTracing(from, phaseStart)
		if err != nil {
			return err
		}
		b.reportTrials(b.reportSpans(spans), wall, b.procs)
		b.reportHandlers(rig, openReqs, client)
		trials := make([]sweep.Trial, len(hot))
		for i, s := range hot {
			trials[i] = trialFromSpec(s)
		}
		if err := b.simProbe(trials); err != nil {
			return err
		}
		if err := b.probes(); err != nil {
			return err
		}
	}

	for _, r := range chk.sampled {
		b.check(checkCold(r.Trial, r))
	}
	rows := make([]row, 0, len(served)+digestRows)
	for _, r := range served {
		rows = append(rows, wireRow(r))
	}
	for i := 0; i < digestRows && i < len(openReqs); i++ {
		for _, r := range chk.prefix[i] {
			rows = append(rows, wireRow(r))
		}
	}
	b.digest = digest(rows)
	return nil
}

// openWindows is how many windows of equal length the reference-rate open
// loop is cut into; latency is the median of the windows' statistics, so a
// stall that hits one window does not set the run's tail.
const openWindows = 5

// reportOpen reports an open-loop phase's latency and the generator's own
// lateness. At the reference rate every request must be served: one left
// unserved fails the run.
func (b *bench) reportOpen(reqs []request, samples []openSample, rate float64) {
	scheduleEnd := time.Duration(float64(len(samples)) / rate * float64(time.Second))
	st := summarizeOpen(samples, scheduleEnd)
	windows := make([][]float64, openWindows)
	for i, s := range samples {
		if s.sent {
			w := i * openWindows / len(samples)
			windows[w] = append(windows[w], ms(s.latency()))
		}
	}
	b.batchLatency(windows)
	byClass := make([][]float64, len(classNames))
	for i, s := range samples {
		if s.sent {
			byClass[reqs[i].class] = append(byClass[reqs[i].class], ms(s.latency()))
		}
	}
	for c, xs := range byClass {
		xs = slices.Sorted(slices.Values(xs))
		b.note("%s requests: p50 %.3f ms, p99 %.3f ms over %d", classNames[c], percentile(xs, 50), percentile(xs, 99), len(xs))
	}
	b.metric("loadgen.max_late_ms", ms(st.maxLate), "ms")
	b.metric("loadgen.backlog", float64(st.backlog), "count")
	if st.maxLate > 5*time.Millisecond {
		b.note("the load generator ran %v late: latencies of this run are suspect", st.maxLate)
	}
	if unsent := len(samples) - len(st.latencies); unsent > 0 {
		b.problem("%d requests due at the reference rate were never sent", unsent)
	}
}

// ladder climbs ladderRates open-loop and reports the highest rate served
// with p99 within ladderLimitMs, nothing failed and no backlog.
func (b *bench) ladder(rig *serviceRig, chk *serviceCheck, hot []wire.TrialSpec) {
	var steps []ladderStep
	for k, rate := range ladderRates {
		n := int(rate * b.sz.ladderStep.Seconds())
		reqs := newTraffic(b.seed, phaseLadder+k, hot).take(n)
		samples, _ := b.openPhase(rig, chk, reqs, rate, time.Second)
		st := summarizeOpen(samples, b.sz.ladderStep)
		lat := slices.Sorted(slices.Values(st.latencies))
		step := ladderStep{rate: rate, p99: percentile(lat, 99), failed: st.failed, backlog: st.backlog}
		steps = append(steps, step)
		b.note("ladder %g req/s: p50 %.3f ms, p99 %.3f ms, %d failed, backlog %d", rate, percentile(lat, 50), step.p99, step.failed, step.backlog)
		if !step.meets(ladderLimitMs) {
			break
		}
	}
	b.metric("max_rate_rps", maxRate(steps, ladderLimitMs), "1/s")
}

// reportHandlers reports server-side handler time by request class and the
// client-side time around it, for the traced open-loop phase.
func (b *bench) reportHandlers(rig *serviceRig, reqs []request, client []time.Duration) {
	byClass := make([][]float64, len(classNames))
	var overhead []float64
	rig.log.mu.Lock()
	for i, req := range reqs {
		h, ok := rig.log.byID[req.id]
		if !ok || client[i] == 0 {
			continue
		}
		byClass[req.class] = append(byClass[req.class], h)
		overhead = append(overhead, ms(client[i])-h)
	}
	rig.log.mu.Unlock()
	for c, xs := range byClass {
		b.metric("service.handler_ms."+classNames[c], median(xs), "ms")
	}
	b.metric("service.client_overhead_ms", median(overhead), "ms")
	hits, misses := rig.hits.Load(), rig.misses.Load()
	b.metric("service.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
}
