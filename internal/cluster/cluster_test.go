package cluster

import (
	"bytes"
	"context"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynspread/internal/obs"
	"dynspread/internal/service"
	"dynspread/internal/stats"
	"dynspread/internal/store"
	"dynspread/internal/sweep"
	"dynspread/internal/wire"
)

// newWorker spins one spreadd worker: a service.Server behind httptest.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := service.New(service.Config{JobWorkers: 2})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Shutdown(context.Background())
	})
	return hs
}

// newFront serves a coordinator-mode service the way spreadd -peers -store
// builds one: coord as its Runner and st as its run cache.
func newFront(t *testing.T, coord *Coordinator, st *store.Store) *service.Client {
	t.Helper()
	front := service.New(service.Config{JobWorkers: 2, Runner: coord.RunSpecs, Store: st})
	fs := httptest.NewServer(front.Handler())
	t.Cleanup(func() {
		fs.Close()
		front.Shutdown(context.Background())
	})
	return &service.Client{BaseURL: fs.URL, Timeout: time.Minute}
}

// runFront submits req to a front service as an async job and waits for it
// to finish done.
func runFront(t *testing.T, c *service.Client, req wire.RunRequest) service.JobStatus {
	t.Helper()
	req.Async = true
	ctx := context.Background()
	js, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if js, err = c.WaitJob(ctx, js.ID, 5*time.Millisecond); err != nil || js.State != service.JobDone {
		t.Fatalf("job ended %q (err %v): %s", js.State, err, js.Error)
	}
	return js
}

// cacheSize scrapes dynspread_service_cache_size from a service.
func cacheSize(t *testing.T, c *service.Client) float64 {
	t.Helper()
	raw, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := obs.Find(fams, "dynspread_service_cache_size").Value(nil)
	if !ok {
		t.Fatal("dynspread_service_cache_size missing from /v1/metrics")
	}
	return v
}

func testBackoff() []time.Duration {
	return []time.Duration{0, 5 * time.Millisecond, 20 * time.Millisecond}
}

// testGrid expands to 24 fast trials.
var testGrid = wire.GridSpec{
	Ns:          []int{12},
	Ks:          []int{8},
	Algorithms:  []string{"single-source", "topkis"},
	Adversaries: []string{"static", "churn"},
	Seeds:       []int64{1, 2, 3, 4, 5, 6},
}

func testSpecs(t *testing.T) []wire.TrialSpec {
	t.Helper()
	specs, err := testGrid.Trials()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestPlanDeterminism: the shard plan is a function of the trial SET alone —
// shuffling, duplicating, or re-planning yields byte-identical shards, and
// sizes are balanced to within one trial.
func TestPlanDeterminism(t *testing.T) {
	plan := func(specs []wire.TrialSpec) []wire.ShardRequest {
		return planBatch(store.Lookup(specs, nil, nil, nil), 5)
	}
	specs := testSpecs(t)
	base := plan(specs)

	// Re-planning is identical.
	if !reflect.DeepEqual(base, plan(specs)) {
		t.Fatal("re-planning the same specs changed the shards")
	}
	// Shuffled and duplicated input plans identically: the worker pool (and
	// any other non-set context) never leaks into shard boundaries.
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]wire.TrialSpec(nil), specs...)
		shuffled = append(shuffled, specs[3], specs[7]) // duplicates
		rng := rand.New(rand.NewSource(int64(trial)))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if !reflect.DeepEqual(base, plan(shuffled)) {
			t.Fatalf("shuffle %d produced a different plan", trial)
		}
	}

	// Structure: sizes balanced to ±1, keys sorted across the whole plan,
	// every unique spec present exactly once.
	total, prevKey := 0, ""
	for _, sh := range base {
		if len(sh.Trials) != len(sh.Keys) || sh.Shards != len(base) {
			t.Fatalf("malformed shard: %+v", sh)
		}
		for i, k := range sh.Keys {
			if k <= prevKey {
				t.Fatal("keys not strictly increasing across the plan")
			}
			if k != wire.Key(sh.Trials[i]) {
				t.Fatal("key does not address its trial")
			}
			prevKey = k
		}
		total += len(sh.Trials)
	}
	if total != len(specs) {
		t.Fatalf("plan covers %d trials, want %d", total, len(specs))
	}
	min, max := len(base[0].Trials), len(base[0].Trials)
	for _, sh := range base {
		if len(sh.Trials) < min {
			min = len(sh.Trials)
		}
		if len(sh.Trials) > max {
			max = len(sh.Trials)
		}
	}
	if max-min > 1 {
		t.Fatalf("shard sizes unbalanced: min %d max %d", min, max)
	}
	if got := len(plan(nil)); got != 0 {
		t.Fatalf("empty plan has %d shards", got)
	}
}

// TestClusterDistributedMatchesLocal: a grid sharded across two workers
// merges bit-identical to the single-node run — per trial and in aggregate.
func TestClusterDistributedMatchesLocal(t *testing.T) {
	specs := testSpecs(t)
	w1, w2 := newWorker(t), newWorker(t)
	coord, err := New(Config{Workers: []string{w1.URL, w2.URL}, ShardSize: 4, Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	var streamed atomic.Int64
	dist, err := coord.Run(context.Background(), specs, func(i int, r wire.TrialResult) {
		streamed.Add(1)
		if !r.Completed {
			t.Errorf("trial %d incomplete", i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	local, err := wire.RunSpecs(context.Background(), specs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist, local) {
		t.Fatal("distributed results diverge from the local sweep")
	}
	if int(streamed.Load()) != len(specs) {
		t.Fatalf("streamed %d results, want %d", streamed.Load(), len(specs))
	}
	// Aggregates merge bit-identically too (the sweep-shaped view).
	for name, pair := range map[string][2]float64{
		"messages": {Aggregate(dist, Messages).Mean, Aggregate(local, Messages).Mean},
		"rounds":   {Aggregate(dist, Rounds).Std, Aggregate(local, Rounds).Std},
	} {
		if pair[0] != pair[1] {
			t.Fatalf("%s aggregate diverged: %v vs %v", name, pair[0], pair[1])
		}
	}
	st := coord.Stats()
	if st.Dispatched != int64(len(specs)) || st.Shards != 6 || st.DeadWorkers != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestClusterSurvivesWorkerDeath: killing one of two workers mid-sweep
// re-dispatches its outstanding shards to the survivor and the sweep still
// completes with correct, complete results.
func TestClusterSurvivesWorkerDeath(t *testing.T) {
	specs := testSpecs(t)
	w1, w2 := newWorker(t), newWorker(t)
	coord, err := New(Config{
		Workers:   []string{w1.URL, w2.URL},
		ShardSize: 2, // many shards, so the kill lands mid-plan
		Poll:      5 * time.Millisecond,
		Backoff:   testBackoff(),
	})
	if err != nil {
		t.Fatal(err)
	}

	var kill sync.Once
	var delivered atomic.Int64
	dist, err := coord.Run(context.Background(), specs, func(i int, r wire.TrialResult) {
		if delivered.Add(1) == 4 { // a few shards in: pull the plug on w2
			kill.Do(func() {
				w2.CloseClientConnections()
				w2.Close()
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	local, err := wire.RunSpecs(context.Background(), specs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist, local) {
		t.Fatal("results after worker death diverge from the local sweep")
	}
	st := coord.Stats()
	if st.DeadWorkers != 1 {
		t.Fatalf("dead workers = %d, want 1 (stats %+v)", st.DeadWorkers, st)
	}
	if alive, total := coord.Workers(); alive != 1 || total != 2 {
		t.Fatalf("workers alive=%d total=%d", alive, total)
	}
}

// TestClusterStoreResume is the persistence acceptance flow: an interrupted
// sweep resumes from its store without redoing stored trials, and re-running
// a completed grid performs ZERO dispatches.
func TestClusterStoreResume(t *testing.T) {
	specs := testSpecs(t)
	dir := t.TempDir()
	w := newWorker(t)

	// Interrupt a first attempt partway: cancel once a few results landed.
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	coord1, _ := New(Config{Workers: []string{w.URL}, ShardSize: 2, Poll: 5 * time.Millisecond, Store: st1})
	var landed atomic.Int64
	_, err = coord1.Run(ctx, specs, func(i int, r wire.TrialResult) {
		if landed.Add(1) == 6 {
			cancel()
		}
	})
	cancel()
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	st1.Close()
	stored := func() int {
		s, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.Len()
	}()
	if stored == 0 || stored >= len(specs) {
		t.Fatalf("interruption stored %d of %d results", stored, len(specs))
	}

	// Resume: a fresh coordinator over the same dir skips everything stored.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord2, _ := New(Config{Workers: []string{w.URL}, ShardSize: 2, Poll: 5 * time.Millisecond, Store: st2})
	dist, err := coord2.Run(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2 := coord2.Stats()
	if s2.StoreHits < int64(stored) || s2.Dispatched != int64(len(specs))-s2.StoreHits {
		t.Fatalf("resume did not skip stored keys: %+v (stored %d)", s2, stored)
	}
	local, err := wire.RunSpecs(context.Background(), specs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist, local) {
		t.Fatal("resumed results diverge from the local sweep")
	}
	st2.Close()

	// Warm re-run: same grid, fresh coordinator — zero simulations anywhere.
	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	coord3, _ := New(Config{Workers: []string{w.URL}, Store: st3})
	again, err := coord3.Run(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s3 := coord3.Stats()
	if s3.Dispatched != 0 || s3.Shards != 0 || s3.StoreHits != int64(len(specs)) {
		t.Fatalf("warm re-run dispatched work: %+v", s3)
	}
	if !reflect.DeepEqual(again, local) {
		t.Fatal("warm re-run results diverge")
	}
}

// TestClusterPermanentErrorFailsFast: a bad spec (unknown algorithm) is a
// deterministic failure — no retries, no other-worker attempts.
func TestClusterPermanentErrorFailsFast(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	coord, _ := New(Config{Workers: []string{w1.URL, w2.URL}, Backoff: testBackoff()})
	_, err := coord.Run(context.Background(), []wire.TrialSpec{
		{N: 8, K: 4, Algorithm: "no-such-algorithm", Adversary: "static", Seed: 1},
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "no-such-algorithm") {
		t.Fatalf("bad spec error: %v", err)
	}
	if st := coord.Stats(); st.Retries != 0 {
		t.Fatalf("permanent failure was retried: %+v", st)
	}
}

// TestClusterAllWorkersDead: with every worker unreachable the run fails
// with a clear error instead of spinning forever.
func TestClusterAllWorkersDead(t *testing.T) {
	coord, _ := New(Config{
		Workers:      []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		Backoff:      testBackoff(),
		FailureLimit: 2,
	})
	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(context.Background(), testSpecs(t)[:4], nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "workers dead") {
			t.Fatalf("all-dead error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("all-dead run did not terminate")
	}
}

// TestClusterDedupAcrossDuplicates: duplicate specs are executed once and
// every instance shares the result.
func TestClusterDedupAcrossDuplicates(t *testing.T) {
	w := newWorker(t)
	coord, _ := New(Config{Workers: []string{w.URL}})
	spec := wire.TrialSpec{N: 10, K: 6, Algorithm: "single-source", Adversary: "static", Seed: 1}
	res, err := coord.Run(context.Background(), []wire.TrialSpec{spec, spec, spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || !reflect.DeepEqual(res[0], res[1]) || !reflect.DeepEqual(res[0], res[2]) {
		t.Fatalf("duplicates diverged: %+v", res)
	}
	st := coord.Stats()
	if st.Dispatched != 1 || st.Deduped != 2 {
		t.Fatalf("dedup accounting: %+v", st)
	}
}

// TestClusterServiceLooksUpOncePerTrial: a coordinator-mode service whose run
// cache is the store looks each distinct trial up in the store exactly once
// per request; the coordinator, which has no store of its own, dispatches
// each distinct trial once on the cold request and nothing on the warm one.
func TestClusterServiceLooksUpOncePerTrial(t *testing.T) {
	distinct := testSpecs(t)
	specs := append(append([]wire.TrialSpec{}, distinct...), distinct[:6]...)
	w1, w2 := newWorker(t), newWorker(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	coord, err := New(Config{Workers: []string{w1.URL, w2.URL}, ShardSize: 4, Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c := newFront(t, coord, st)
	local, err := wire.RunSpecs(context.Background(), specs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		before := st.Stats().Gets
		js := runFront(t, c, wire.RunRequest{Trials: specs})
		if gets := st.Stats().Gets - before; gets != int64(len(distinct)) {
			t.Fatalf("request %d made %d store Gets for %d distinct trials", i, gets, len(distinct))
		}
		// The cold request dispatched each distinct trial once; the warm one
		// added nothing.
		if got := coord.Stats().Dispatched; got != int64(len(distinct)) {
			t.Fatalf("after request %d the coordinator dispatched %d trials in total, want %d", i, got, len(distinct))
		}
		if !reflect.DeepEqual(js.Results, local) {
			t.Fatalf("request %d: coordinator-mode results diverge from the local sweep", i)
		}
		if size := cacheSize(t, c); st.Len() != len(distinct) || size != float64(st.Len()) {
			t.Fatalf("request %d: store holds %d results, cache_size %v; want %d", i, st.Len(), size, len(distinct))
		}
	}
}

// TestClusterRunGridMatchesSweepRunGrid: a wire grid run through the
// coordinator merges bit-identical to sweep.RunGrid over the equivalent
// grid.
func TestClusterRunGridMatchesSweepRunGrid(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	coord, _ := New(Config{Workers: []string{w1.URL, w2.URL}, ShardSize: 4, Poll: 5 * time.Millisecond})
	dist, err := coord.Run(context.Background(), testSpecs(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	sweepResults, err := sweep.RunGrid(context.Background(), sweep.Grid{
		Ns: testGrid.Ns, Ks: testGrid.Ks,
		Algorithms:  testGrid.Algorithms,
		Adversaries: testGrid.Adversaries,
		Seeds:       testGrid.Seeds,
	}, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != len(sweepResults) {
		t.Fatalf("%d distributed vs %d local results", len(dist), len(sweepResults))
	}
	for i, r := range sweepResults {
		if !reflect.DeepEqual(dist[i], wire.ResultFromSweep(r)) {
			t.Fatalf("trial %d diverged:\n dist  %+v\n local %+v", i, dist[i], wire.ResultFromSweep(r))
		}
	}
	// The aggregates are bit-identical to summaries of the sweep results.
	messages := make([]float64, len(sweepResults))
	rounds := make([]float64, len(sweepResults))
	for i, r := range sweepResults {
		messages[i], rounds[i] = float64(r.Res.Metrics.Messages), float64(r.Res.Rounds)
	}
	if got, want := Aggregate(dist, Messages), stats.Summarize(messages); got != want {
		t.Fatalf("message aggregate diverged: %+v vs %+v", got, want)
	}
	if got, want := Aggregate(dist, Rounds), stats.Summarize(rounds); got != want {
		t.Fatalf("rounds aggregate diverged: %+v vs %+v", got, want)
	}
}
