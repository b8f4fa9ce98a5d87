package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dynspread/internal/obs"
	"dynspread/internal/store"
	"dynspread/internal/wire"
)

// harness spins up a Server behind httptest and a Client against it.
type harness struct {
	srv    *Server
	hs     *httptest.Server
	client *Client
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	return &harness{
		srv:    srv,
		hs:     hs,
		client: &Client{BaseURL: hs.URL, HTTPClient: hs.Client()},
	}
}

// metric scrapes /v1/metrics and returns the value of one series.
func (h *harness) metric(t *testing.T, name string, labels map[string]string) float64 {
	t.Helper()
	raw, err := h.client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	f := obs.Find(fams, name)
	if f == nil {
		t.Fatalf("family %s missing from /v1/metrics", name)
	}
	v, ok := f.Value(labels)
	if !ok {
		t.Fatalf("series %s%v missing from /v1/metrics", name, labels)
	}
	return v
}

// close tears the harness down in the order a process would: HTTP listener
// first, then the service drain.
func (h *harness) close(t *testing.T, ctx context.Context) {
	t.Helper()
	h.hs.Close()
	if err := h.srv.Shutdown(ctx); err != nil && ctx.Err() == nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// waitGoroutines waits for the goroutine count to settle back to at most
// want, dumping stacks on timeout.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), want, buf[:n])
}

var e2eGrid = wire.GridSpec{
	Ns:          []int{12},
	Ks:          []int{8},
	Algorithms:  []string{"single-source", "topkis"},
	Adversaries: []string{"static", "churn"},
	Seeds:       []int64{1, 2, 3, 4, 5, 6},
}

// TestServiceE2E is the acceptance flow: the same sweep submitted twice
// returns identical results with the second response served from the cache
// (verified via the response counters and /v1/metrics), and shutdown drains
// without leaking goroutines.
func TestServiceE2E(t *testing.T) {
	base := runtime.NumGoroutine()
	// SyncTrialLimit below the grid size forces the queued 202 path.
	h := newHarness(t, Config{SyncTrialLimit: 4, JobWorkers: 2})
	ctx := context.Background()

	if _, err := h.client.do(ctx, http.MethodGet, "/v1/healthz", nil, nil); err != nil {
		t.Fatal(err)
	}

	req := wire.RunRequest{Grid: &e2eGrid}
	total := 2 * 2 * 6

	first, err := h.client.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != JobQueued || first.ID == "" {
		t.Fatalf("large job not queued: %+v", first)
	}
	firstDone, err := h.client.WaitJob(ctx, first.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if firstDone.State != JobDone || firstDone.Completed != total || len(firstDone.Results) != total {
		t.Fatalf("first sweep: %+v (results %d)", firstDone, len(firstDone.Results))
	}
	for i, r := range firstDone.Results {
		if !r.Completed || r.Trial.N != 12 {
			t.Fatalf("result %d wrong: %+v", i, r)
		}
	}

	// Second submission of the identical sweep: zero simulation work.
	second, err := h.client.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	secondDone, err := h.client.WaitJob(ctx, second.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if secondDone.CacheHits != total || secondDone.CacheMisses != 0 {
		t.Fatalf("second sweep not served from cache: %+v", secondDone)
	}
	if !reflect.DeepEqual(firstDone.Results, secondDone.Results) {
		t.Fatal("second sweep's results differ from the first")
	}
	hits, size := h.metric(t, "dynspread_service_cache_hits_total", nil), h.metric(t, "dynspread_service_cache_size", nil)
	if hits < float64(total) || size != float64(total) {
		t.Fatalf("metrics disagree with the cache hit: hits %v size %v", hits, size)
	}
	if done := h.metric(t, "dynspread_service_jobs", map[string]string{"state": string(JobDone)}); done != 2 {
		t.Fatalf("done jobs = %v, want 2", done)
	}

	h.close(t, ctx)
	waitGoroutines(t, base)
}

func TestServiceSyncRunsAndSpreadsimSchema(t *testing.T) {
	h := newHarness(t, Config{})
	defer h.close(t, context.Background())
	ctx := context.Background()

	spec := wire.TrialSpec{N: 10, K: 6, Algorithm: "single-source", Adversary: "churn", Seed: 3}
	st, err := h.client.Run(ctx, wire.RunRequest{Trials: []wire.TrialSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || len(st.Results) != 1 || st.CacheMisses != 1 {
		t.Fatalf("sync run: %+v", st)
	}
	// The service's per-trial schema is exactly what an in-process
	// wire.RunSpecs produces: the wire.ResultFromSweep conversion that the
	// facade's Run, and so spreadsim -json, also returns.
	local, err := wire.RunSpecs(ctx, []wire.TrialSpec{spec}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Results[0], local[0]) {
		t.Fatalf("service result diverged from RunSpecs:\n%+v\n%+v", st.Results[0], local[0])
	}
	// Same spec again: a synchronous cache hit.
	again, err := h.client.Run(ctx, wire.RunRequest{Trials: []wire.TrialSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHits != 1 || again.CacheMisses != 0 {
		t.Fatalf("sync re-run not cached: %+v", again)
	}
	if !reflect.DeepEqual(again.Results, st.Results) {
		t.Fatal("cached result differs")
	}
}

func TestServiceScenarioJobs(t *testing.T) {
	h := newHarness(t, Config{})
	defer h.close(t, context.Background())
	st, err := h.client.Run(context.Background(), wire.RunRequest{
		Trials: []wire.TrialSpec{{Scenario: "token-stream", Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := st.Results[0]
	if r.Trial.N != 24 || r.Trial.K != 48 || r.Trial.Algorithm != "topkis" || len(r.Trial.Arrivals) != 48 {
		t.Fatalf("scenario not resolved in result: %+v", r.Trial)
	}
}

// TestServiceCatalogPinnedOrder pins the sorted catalog: deterministic
// listing order is part of the wire contract (and what makes catalog diffs
// and cache keys stable across builds).
func TestServiceCatalogPinnedOrder(t *testing.T) {
	h := newHarness(t, Config{})
	defer h.close(t, context.Background())
	cat, err := h.client.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var algs, advs, scens []string
	for _, a := range cat.Algorithms {
		algs = append(algs, a.Name)
	}
	for _, a := range cat.Adversaries {
		advs = append(advs, a.Name)
	}
	for _, s := range cat.Scenarios {
		scens = append(scens, s.Name)
	}
	wantAlgs := []string{"flooding", "multi-source", "oblivious", "random-broadcast", "single-source", "spanning-tree", "topkis"}
	wantAdvs := []string{"churn", "free-edge", "markovian", "mobility", "regular", "request-cutter", "rewire", "rotating-star", "static"}
	wantScens := []string{"bursty-gossip", "mobilemesh", "p2pchurn", "quickstart", "sensornet", "streaming", "token-stream", "walkcenters"}
	if !reflect.DeepEqual(algs, wantAlgs) {
		t.Errorf("algorithms = %v\nwant %v", algs, wantAlgs)
	}
	if !reflect.DeepEqual(advs, wantAdvs) {
		t.Errorf("adversaries = %v\nwant %v", advs, wantAdvs)
	}
	if !reflect.DeepEqual(scens, wantScens) {
		t.Errorf("scenarios = %v\nwant %v", scens, wantScens)
	}
	// Modes survived the JSON round trip through the client.
	if cat.Algorithms[0].Mode.String() != "broadcast" || cat.Adversaries[0].Modes.String() != "unicast|broadcast" {
		t.Errorf("modes mangled: %v %v", cat.Algorithms[0].Mode, cat.Adversaries[0].Modes)
	}
	for _, s := range cat.Scenarios {
		if s.Doc == "" || s.N < 2 || s.Schedule == "" {
			t.Errorf("catalog scenario entry incomplete: %+v", s)
		}
	}
}

// TestServiceSyncSpillsToQueueWhenSaturated: inline execution is bounded by
// JobWorkers slots; with every slot taken, a small job is queued (202)
// instead of running unbounded on the handler goroutine.
func TestServiceSyncSpillsToQueueWhenSaturated(t *testing.T) {
	h := newHarness(t, Config{JobWorkers: 1})
	defer h.close(t, context.Background())
	ctx := context.Background()

	h.srv.syncSem <- struct{}{} // occupy the only sync slot
	st, err := h.client.Run(ctx, wire.RunRequest{
		Trials: []wire.TrialSpec{{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued {
		t.Fatalf("saturated sync path answered %q, want queued", st.State)
	}
	done, err := h.client.WaitJob(ctx, st.ID, 10*time.Millisecond)
	if err != nil || done.State != JobDone {
		t.Fatalf("spilled job: %+v %v", done, err)
	}
	<-h.srv.syncSem // free the slot
	direct, err := h.client.Run(ctx, wire.RunRequest{
		Trials: []wire.TrialSpec{{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: 2}},
	})
	if err != nil || direct.State != JobDone {
		t.Fatalf("free slot did not serve synchronously: %+v %v", direct, err)
	}
}

// TestServiceAcceptedJobReportsQueued: a 202 answers with the state the job
// was accepted in. With a runner that returns at once, a queue worker often
// picks the job up before the handler writes its response; the body must
// still say queued, never running or done.
func TestServiceAcceptedJobReportsQueued(t *testing.T) {
	const submissions = 2000
	noop := func(_ context.Context, specs []wire.TrialSpec, _ *wire.RecordSpec, _ func(int, wire.TrialResult)) ([]wire.TrialResult, error) {
		return make([]wire.TrialResult, len(specs)), nil
	}
	h := newHarness(t, Config{QueueDepth: submissions, Runner: noop})
	defer h.close(t, context.Background())
	ctx := context.Background()
	late := 0
	for i := 0; i < submissions; i++ {
		st, err := h.client.Run(ctx, wire.RunRequest{
			Trials: []wire.TrialSpec{{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: int64(i)}},
			Async:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobQueued {
			late++
		}
	}
	if late > 0 {
		t.Fatalf("%d of %d 202 bodies reported a state other than queued", late, submissions)
	}
}

// TestServiceDeduplicatesWithinJob: duplicate specs in one request are
// simulated once and share the result.
func TestServiceDeduplicatesWithinJob(t *testing.T) {
	h := newHarness(t, Config{})
	defer h.close(t, context.Background())
	spec := wire.TrialSpec{N: 10, K: 6, Algorithm: "single-source", Adversary: "static", Seed: 1}
	st, err := h.client.Run(context.Background(), wire.RunRequest{
		Trials: []wire.TrialSpec{spec, spec, spec},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 3 || len(st.Results) != 3 {
		t.Fatalf("status: %+v", st)
	}
	if !reflect.DeepEqual(st.Results[0], st.Results[1]) || !reflect.DeepEqual(st.Results[0], st.Results[2]) {
		t.Fatal("duplicate specs got different results")
	}
	if size := h.metric(t, "dynspread_service_cache_size", nil); size != 1 {
		t.Fatalf("3 duplicate specs filled %v cache entries, want 1", size)
	}
}

// TestServiceStoreIsRunCache: with Config.Store set, the on-disk store is the
// run cache — results land in it and repeat requests are served from it —
// and once a Put fails (here: the store is closed) the job fails with the
// store's own error instead of reporting results the cache never took.
func TestServiceStoreIsRunCache(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, Config{Store: st})
	defer h.close(t, context.Background())
	ctx := context.Background()
	spec := wire.TrialSpec{N: 10, K: 6, Algorithm: "single-source", Adversary: "static", Seed: 1}
	other := spec
	other.Seed = 2
	req := wire.RunRequest{Trials: []wire.TrialSpec{spec, other, spec}}

	first, err := h.client.Run(ctx, req)
	if err != nil || first.State != JobDone {
		t.Fatalf("first run: %+v (err %v)", first, err)
	}
	second, err := h.client.Run(ctx, req)
	if err != nil || second.State != JobDone || second.CacheHits != 3 || second.CacheMisses != 0 {
		t.Fatalf("repeat run not served from the store: %+v (err %v)", second, err)
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatal("store-served results differ from the simulated ones")
	}
	if size := h.metric(t, "dynspread_service_cache_size", nil); st.Len() != 2 || size != 2 {
		t.Fatalf("store holds %d results, cache_size %v; want 2 and 2", st.Len(), size)
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	putErr := st.Put("key", wire.TrialResult{})
	if putErr == nil {
		t.Fatal("Put on a closed store succeeded")
	}
	fresh := spec
	fresh.Seed = 3
	js, err := h.client.Run(ctx, wire.RunRequest{Trials: []wire.TrialSpec{fresh}, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if js, err = h.client.WaitJob(ctx, js.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if js.State != JobFailed || js.Error != putErr.Error() {
		t.Fatalf("job after a failed Put ended %q with error %q, want %q with %q", js.State, js.Error, JobFailed, putErr)
	}
}

// TestServiceJobHistoryEviction: only the most recent terminal jobs stay
// addressable, so a long-running daemon's memory is bounded.
func TestServiceJobHistoryEviction(t *testing.T) {
	h := newHarness(t, Config{JobHistory: 1})
	defer h.close(t, context.Background())
	ctx := context.Background()
	run := func(seed int64) JobStatus {
		st, err := h.client.Run(ctx, wire.RunRequest{
			Trials: []wire.TrialSpec{{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: seed}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	first, second := run(1), run(2)
	if _, err := h.client.Job(ctx, first.ID); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("evicted job still addressable: %v", err)
	}
	if st, err := h.client.Job(ctx, second.ID); err != nil || st.State != JobDone {
		t.Fatalf("recent job lost: %+v %v", st, err)
	}
}

func TestServiceRejectsBadRequests(t *testing.T) {
	h := newHarness(t, Config{})
	defer h.close(t, context.Background())
	ctx := context.Background()

	// Unknown algorithm: the job fails synchronously with a 400 that names it.
	_, err := h.client.Run(ctx, wire.RunRequest{
		Trials: []wire.TrialSpec{{N: 8, K: 4, Algorithm: "no-such", Adversary: "static"}},
	})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("unknown algorithm: %v", err)
	}
	// An empty request is rejected before any job is created.
	if _, err := h.client.Run(ctx, wire.RunRequest{}); err == nil {
		t.Fatal("empty request accepted")
	}
	// A partial grid is a validation error.
	if _, err := h.client.Run(ctx, wire.RunRequest{Grid: &wire.GridSpec{Ns: []int{8}}}); err == nil {
		t.Fatal("partial grid accepted")
	}
	// Unknown job.
	if _, err := h.client.Job(ctx, "j999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown job: %v", err)
	}
}

func TestServiceQueueFull(t *testing.T) {
	h := newHarness(t, Config{QueueDepth: 1, JobWorkers: 1, SyncTrialLimit: 1})
	defer h.close(t, context.Background())
	ctx := context.Background()

	// A big job occupies the single worker for a while...
	busy := wire.RunRequest{Grid: &wire.GridSpec{
		Ns: []int{32}, Ks: []int{32},
		Algorithms:  []string{"single-source"},
		Adversaries: []string{"churn"},
		Seeds:       seeds(64),
	}}
	first, err := h.client.Run(ctx, busy)
	if err != nil {
		t.Fatal(err)
	}
	// ...the next queued job fills the depth-1 queue...
	second, err := h.client.Run(ctx, busy)
	if err != nil {
		t.Fatal(err)
	}
	// ...so a third is refused with 503.
	_, err = h.client.Run(ctx, busy)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("overflow submission: %v", err)
	}
	for _, id := range []string{first.ID, second.ID} {
		st, err := h.client.WaitJob(ctx, id, 10*time.Millisecond)
		if err != nil || st.State != JobDone {
			t.Fatalf("job %s: %+v %v", id, st, err)
		}
	}
}

// TestServiceShutdownCancelsInFlight exercises the forced drain: an already
// expired shutdown context cancels the base context, the sweep pool stops
// dispatching, and every goroutine exits.
func TestServiceShutdownCancelsInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	h := newHarness(t, Config{SyncTrialLimit: 1, JobWorkers: 1})
	ctx := context.Background()

	long := wire.RunRequest{Grid: &wire.GridSpec{
		Ns: []int{48}, Ks: []int{48},
		Algorithms:  []string{"single-source"},
		Adversaries: []string{"churn"},
		Seeds:       seeds(256),
	}}
	st, err := h.client.Run(ctx, long)
	if err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	h.hs.Close()
	if err := h.srv.Shutdown(expired); err != context.Canceled {
		t.Fatalf("forced shutdown returned %v", err)
	}
	// Submissions are refused after shutdown.
	if _, err := h.srv.submit(nil, nil, nil); err != errServerClosed {
		t.Fatalf("post-shutdown submit: %v", err)
	}
	// The job reached a terminal state (canceled mid-run, or done if it was
	// quick enough to beat the drain).
	final := h.srv.jobs[st.ID].Status()
	switch final.State {
	case JobFailed:
		if !strings.Contains(final.Error, context.Canceled.Error()) {
			t.Fatalf("aborted job error = %q", final.Error)
		}
	case JobDone, JobCanceled:
	default:
		t.Fatalf("job left in state %q", final.State)
	}
	waitGoroutines(t, base)
}

func seeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// TestServiceJobsListing: GET /v1/jobs enumerates every addressable job in
// submission order, strips result payloads, and counts states — and the
// output is stable across calls.
func TestServiceJobsListing(t *testing.T) {
	h := newHarness(t, Config{})
	defer h.close(t, context.Background())
	ctx := context.Background()

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		st, err := h.client.Run(ctx, wire.RunRequest{
			Trials: []wire.TrialSpec{{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: seed}},
		})
		if err != nil || st.State != JobDone {
			t.Fatalf("job %d: %+v %v", seed, st, err)
		}
		ids = append(ids, st.ID)
	}

	jl, err := h.client.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jl.Jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(jl.Jobs))
	}
	for i, st := range jl.Jobs {
		if st.ID != ids[i] {
			t.Fatalf("listing out of submission order: %v vs submitted %v", jl.Jobs, ids)
		}
		if st.Results != nil {
			t.Fatalf("listing leaked result payloads for %s", st.ID)
		}
		if st.State != JobDone || st.Completed != 1 || st.Total != 1 {
			t.Fatalf("listed status wrong: %+v", st)
		}
	}
	if jl.ByState[JobDone] != 3 || len(jl.ByState) != 1 {
		t.Fatalf("by_state = %+v", jl.ByState)
	}
	again, err := h.client.Jobs(ctx)
	if err != nil || !reflect.DeepEqual(jl, again) {
		t.Fatalf("job listing unstable across calls:\n%+v\n%+v (%v)", jl, again, err)
	}
}
