package sweep

import (
	"errors"

	"context"
	"dynspread/internal/graph"
	"dynspread/internal/trace"
	"strings"
	"sync"
	"testing"

	// Trials resolve through the registry, so the bundled components must
	// be registered.
	_ "dynspread/internal/adversary"
	_ "dynspread/internal/core"
)

func TestGridTrialsExpansionOrder(t *testing.T) {
	g := Grid{
		Ns:          []int{8, 16},
		Ks:          []int{4},
		Algorithms:  []string{"single-source", "topkis"},
		Adversaries: []string{"static"},
		Seeds:       []int64{1, 2},
	}
	trials := g.Trials()
	if len(trials) != 8 {
		t.Fatalf("got %d trials, want 8", len(trials))
	}
	// n-major, seeds innermost.
	if trials[0].N != 8 || trials[len(trials)-1].N != 16 {
		t.Fatalf("n order wrong: %+v", trials)
	}
	if trials[0].Seed != 1 || trials[1].Seed != 2 {
		t.Fatalf("seeds not innermost: %+v %+v", trials[0], trials[1])
	}
	if trials[0].Sources != 1 {
		t.Fatalf("default sources = %d, want 1", trials[0].Sources)
	}
	if trials[0].Algorithm != "single-source" || trials[2].Algorithm != "topkis" {
		t.Fatalf("algorithm order wrong: %+v %+v", trials[0], trials[2])
	}
}

// TestGridCardinalityMatchesTrials pins Cardinality to the expansion it
// mirrors, across both grid families and every axis-defaulting rule — the
// wire layer relies on the count to reject huge grids before expansion, so
// the two must never drift.
func TestGridCardinalityMatchesTrials(t *testing.T) {
	grids := []Grid{
		{Ns: []int{8, 16}, Ks: []int{4}, Algorithms: []string{"a", "b"}, Adversaries: []string{"x"}, Seeds: []int64{1, 2}},
		{Ns: []int{8}, Ks: []int{4, 8}, Sources: []int{1, 2, 4}, Algorithms: []string{"a"}, Adversaries: []string{"x", "y"}},
		{Scenarios: []string{"s1", "s2"}},
		{Scenarios: []string{"s1"}, Algorithms: []string{"a", "b"}, Seeds: []int64{1, 2, 3}},
		{Ns: []int{8}, Ks: []int{4}, Algorithms: []string{"a"}, Adversaries: []string{"x"}, Scenarios: []string{"s1", "s2"}, Seeds: []int64{1}},
		{},
	}
	for i, g := range grids {
		if got, want := g.Cardinality(), len(g.Trials()); got != want {
			t.Fatalf("grid %d: Cardinality() = %d, len(Trials()) = %d", i, got, want)
		}
	}
	// Saturation: axis lengths whose product overflows report MaxInt-ish
	// counts instead of wrapping.
	big := make([]int, 1<<16)
	huge := Grid{Ns: big, Ks: big, Sources: big, Algorithms: []string{"a"}, Adversaries: []string{"x"}}
	if c := huge.Cardinality(); c < 1<<30 {
		t.Fatalf("saturating cardinality too small: %d", c)
	}
}

func TestRunMatchesSerialAndIsDeterministic(t *testing.T) {
	g := Grid{
		Ns:          []int{10},
		Ks:          []int{8},
		Algorithms:  []string{"single-source", "topkis"},
		Adversaries: []string{"static", "churn"},
		Seeds:       []int64{1, 2, 3},
	}
	serial, err := Run(context.Background(), g.Trials(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), g.Trials(), Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) || len(serial) != len(g.Trials()) {
		t.Fatalf("length mismatch: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !serial[i].Res.Completed {
			t.Fatalf("trial %d (%s) incomplete", i, serial[i].Trial)
		}
		if serial[i].Res.Metrics != parallel[i].Res.Metrics {
			t.Fatalf("trial %d (%s): parallel diverged from serial:\n%+v\n%+v",
				i, serial[i].Trial, serial[i].Res.Metrics, parallel[i].Res.Metrics)
		}
	}
}

// Workspace reuse across a worker's sequential trials must not leak state
// between trials: the same trial repeated with different neighbors in the
// work list must give identical results.
func TestRunWorkspaceReuseIsStateless(t *testing.T) {
	probe := Trial{N: 10, K: 10, Algorithm: "single-source", Adversary: "churn", Seed: 5}
	alone, err := Run(context.Background(), []Trial{probe}, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Same probe after trials of different shapes (bigger n, broadcast mode)
	// on ONE worker, so all share a workspace.
	mixed, err := Run(context.Background(), []Trial{
		{N: 16, K: 4, Algorithm: "topkis", Adversary: "static", Seed: 1},
		{N: 6, K: 6, Sources: 6, Algorithm: "flooding", Adversary: "static", Seed: 2},
		probe,
	}, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if alone[0].Res.Metrics != mixed[2].Res.Metrics {
		t.Fatalf("workspace reuse changed results:\n%+v\n%+v", alone[0].Res.Metrics, mixed[2].Res.Metrics)
	}
}

func TestRunStopsDispatchingAfterError(t *testing.T) {
	// Trial 1 fails (unknown algorithm). With one worker, everything after
	// it must never run.
	trials := []Trial{
		{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: 1},
		{N: 8, K: 4, Algorithm: "no-such-algorithm", Adversary: "static", Seed: 1},
		{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: 2},
	}
	_, err := Run(context.Background(), trials, Options{Parallelism: 1})
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "trial 1") || !strings.Contains(err.Error(), "no-such-algorithm") {
		t.Fatalf("error does not identify the failing trial: %v", err)
	}
}

func TestRunTrialModeMismatch(t *testing.T) {
	if _, err := RunTrial(Trial{N: 8, K: 4, Algorithm: "flooding", Adversary: "request-cutter"}, nil); err == nil {
		t.Fatal("broadcast algorithm × unicast-only adversary must fail")
	}
	if _, err := RunTrial(Trial{N: 8, K: 4, Algorithm: "single-source", Adversary: "free-edge"}, nil); err == nil {
		t.Fatal("unicast algorithm × broadcast-only adversary must fail")
	}
}

// TestRunTrialChecksStabilityInBothModes: CheckStability applies to
// broadcast trials as well as unicast ones. The rewire adversary redraws the
// whole graph every round, so it violates σ=3 under either mode.
func TestRunTrialChecksStabilityInBothModes(t *testing.T) {
	for _, tr := range []Trial{
		{N: 8, K: 8, Sources: 8, Algorithm: "flooding", Adversary: "rewire", Seed: 1, CheckStability: 3},
		{N: 8, K: 8, Algorithm: "single-source", Adversary: "rewire", Seed: 1, CheckStability: 3},
	} {
		_, err := RunTrial(tr, nil)
		if err == nil || !strings.Contains(err.Error(), "3-edge stability") {
			t.Errorf("%s: err = %v, want a 3-edge stability violation", tr.Algorithm, err)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	res, err := Run(context.Background(), nil, Options{})
	if err != nil || res != nil {
		t.Fatalf("empty run: %v %v", res, err)
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, []Trial{
		{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: 1},
	}, Options{Parallelism: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "trial 0") {
		t.Fatalf("error does not identify the first undispatched trial: %v", err)
	}
}

func TestRunCancellationStopsDispatch(t *testing.T) {
	// One worker; trial 1 cancels the context mid-run (from its OnDelta
	// hook). Trial 1 still finishes — in-flight work is never interrupted —
	// and trial 2 is refused at dispatch with the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trials := []Trial{
		{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: 1},
		{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: 2,
			OnDelta: func(graph.Diff) { cancel() }},
		{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: 3},
	}
	_, err := Run(ctx, trials, Options{Parallelism: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "trial 2") {
		t.Fatalf("cancellation should surface at trial 2, got: %v", err)
	}
}

func TestRunOnResultCoversEveryTrialOnce(t *testing.T) {
	g := Grid{
		Ns:          []int{10},
		Ks:          []int{8},
		Algorithms:  []string{"single-source", "topkis"},
		Adversaries: []string{"static"},
		Seeds:       []int64{1, 2, 3},
	}
	trials := g.Trials()
	var (
		mu   sync.Mutex
		seen = map[int]Result{}
	)
	results, err := Run(context.Background(), trials, Options{
		Parallelism: 4,
		OnResult: func(i int, r Result) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := seen[i]; dup {
				t.Errorf("OnResult called twice for trial %d", i)
			}
			seen[i] = r
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(trials) {
		t.Fatalf("OnResult covered %d of %d trials", len(seen), len(trials))
	}
	for i, r := range results {
		if seen[i].Res != r.Res {
			t.Fatalf("trial %d: OnResult saw a different result than Run returned", i)
		}
	}
}

func TestRunOnResultOrderingUnderCancellation(t *testing.T) {
	// One worker, so dispatch order is trial order. Trial 1 cancels the
	// context mid-run: it was already dispatched, so it finishes and its
	// callback fires; trial 2 is refused at dispatch and must get no
	// callback. After Run returns, no further callbacks may arrive.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trials := []Trial{
		{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: 1},
		{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: 2,
			OnDelta: func(graph.Diff) { cancel() }},
		{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: 3},
	}
	var (
		mu       sync.Mutex
		order    []int
		returned bool
	)
	_, err := Run(ctx, trials, Options{
		Parallelism: 1,
		OnResult: func(i int, _ Result) {
			mu.Lock()
			defer mu.Unlock()
			if returned {
				t.Errorf("OnResult for trial %d arrived after Run returned", i)
			}
			order = append(order, i)
		},
	})
	mu.Lock()
	returned = true
	got := append([]int(nil), order...)
	mu.Unlock()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("callback order = %v, want [0 1] (trial 2 undispatched)", got)
	}
}

func TestRunTrialScenarioResolution(t *testing.T) {
	r, err := RunTrial(Trial{Scenario: "token-stream", Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt := r.Trial
	if rt.N != 24 || rt.K != 48 || rt.Sources != 1 {
		t.Fatalf("resolved shape wrong: %+v", rt)
	}
	if rt.Algorithm != "topkis" || rt.Adversary != "churn" || rt.Sigma != 3 {
		t.Fatalf("resolved defaults wrong: %+v", rt)
	}
	if len(rt.Arrivals) != 48 || rt.Arrivals[0] != 1 || rt.Arrivals[47] != 24 {
		t.Fatalf("arrival schedule not materialized: %v", rt.Arrivals)
	}
	if !r.Res.Completed {
		t.Fatalf("token-stream did not complete: %+v", r.Res)
	}
	if r.Res.Rounds < 24 {
		t.Fatalf("completed in round %d, before the last arrival (round 24)", r.Res.Rounds)
	}

	// Algorithm and adversary overrides cross the workload with other
	// components; shape overrides are rejected.
	r, err = RunTrial(Trial{Scenario: "token-stream", Algorithm: "single-source", Adversary: "static", Seed: 1, Arrivals: make([]int, 48)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trial.Algorithm != "single-source" || r.AdversaryName == "churn" {
		t.Fatalf("overrides ignored: %+v (adv %s)", r.Trial, r.AdversaryName)
	}
	if _, err := RunTrial(Trial{Scenario: "token-stream", N: 10}, nil); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("shape override accepted: %v", err)
	}
	if _, err := RunTrial(Trial{Scenario: "no-such"}, nil); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestRunTrialReplayReproducesMetrics(t *testing.T) {
	base := Trial{N: 12, K: 6, Algorithm: "single-source", Adversary: "churn", Seed: 9}
	rec := base
	tr := &trace.GraphTrace{N: base.N}
	rec.OnDelta = tr.Append
	orig, err := RunTrial(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	replayed := base
	replayed.Adversary = ""
	replayed.Replay = tr
	got, err := RunTrial(replayed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.AdversaryName != "trace-replay" {
		t.Fatalf("adversary name %q", got.AdversaryName)
	}
	if *got.Res != *orig.Res {
		t.Fatalf("replay diverged from recording:\n rec    %+v\n replay %+v", orig.Res, got.Res)
	}
	// A replay trace for the wrong instance size is rejected.
	bad := base
	bad.N = 13
	bad.Replay = tr
	if _, err := RunTrial(bad, nil); err == nil || !strings.Contains(err.Error(), "n=12") {
		t.Fatalf("size mismatch accepted: %v", err)
	}
}

// TestReplayFailureNamesTraceReplay: a replay whose trace fails validation
// names its dynamics trace-replay, both in the trial's description and in
// the adversary error (not the empty Adversary field).
func TestReplayFailureNamesTraceReplay(t *testing.T) {
	bad := &trace.GraphTrace{N: 5, Rounds: []trace.RoundEvents{{Del: [][2]int{{0, 1}}}}}
	_, err := Run(context.Background(), []Trial{{N: 5, K: 3, Algorithm: "single-source", Replay: bad, Seed: 1}}, Options{})
	want := `sweep: trial 0 (single-source×trace-replay n=5 k=3 s=0 seed=1): adversary "trace-replay": trace: round 1 deletes edge {0,1} not present`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v\nwant  %s", err, want)
	}
}

func TestGridScenarioAxis(t *testing.T) {
	g := Grid{
		Scenarios: []string{"token-stream", "bursty-gossip"},
		Seeds:     []int64{1, 2},
	}
	trials := g.Trials()
	if len(trials) != 4 {
		t.Fatalf("got %d trials, want 4", len(trials))
	}
	if trials[0].Scenario != "token-stream" || trials[0].Algorithm != "" || trials[3].Scenario != "bursty-gossip" {
		t.Fatalf("scenario expansion wrong: %+v", trials)
	}
	results, err := RunGrid(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Res.Completed {
			t.Fatalf("result %d (%s) incomplete", i, r.Trial)
		}
		if r.Trial.K == 0 {
			t.Fatalf("result %d carries an unresolved trial: %+v", i, r.Trial)
		}
	}
	// Scenario × algorithm crossing.
	cross := Grid{
		Scenarios:  []string{"token-stream"},
		Algorithms: []string{"topkis", "single-source"},
		Seeds:      []int64{1},
	}
	ct := cross.Trials()
	if len(ct) != 2 || ct[0].Algorithm != "topkis" || ct[1].Algorithm != "single-source" {
		t.Fatalf("crossed expansion wrong: %+v", ct)
	}
	// A scenarios-only grid passes RunGrid's emptiness validation; a fully
	// empty grid still fails it, and so does a partially specified classic
	// family riding along with scenarios (it would silently expand to
	// nothing).
	if _, err := RunGrid(context.Background(), Grid{}, Options{}); err == nil {
		t.Fatal("empty grid accepted")
	}
	partial := Grid{
		Ns: []int{8}, Ks: []int{4},
		Algorithms: []string{"single-source"},
		Scenarios:  []string{"token-stream"},
	}
	if _, err := RunGrid(context.Background(), partial, Options{}); err == nil || !strings.Contains(err.Error(), "Adversaries") {
		t.Fatalf("partial classic family not rejected: %v", err)
	}
}
