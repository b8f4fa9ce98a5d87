package dynspread_test

// Distributed merge-equivalence suite: a grid sharded across two in-process
// spreadd workers must merge back bit-identical to the single-node sweep —
// per trial and in aggregate — on every golden row that pins the
// engine itself (golden_test.go). Combined with the golden suite this
// chains the guarantee end to end: seed engine ≡ unified engine ≡ service
// schema ≡ distributed execution.

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"dynspread"
	"dynspread/internal/cluster"
	"dynspread/internal/service"
	"dynspread/internal/sweep"
	"dynspread/internal/wire"
)

// goldenSpecs converts the golden rows into wire specs (completed-only in
// -short mode, mirroring the golden suite's skip).
func goldenSpecs(t *testing.T) []dynspread.TrialSpec {
	t.Helper()
	specs := make([]dynspread.TrialSpec, 0, len(goldenRows))
	for _, row := range goldenRows {
		if testing.Short() && !row.completed {
			continue
		}
		specs = append(specs, dynspread.TrialSpec{
			N: goldenN, K: goldenK, Sources: row.sources,
			Algorithm: row.alg,
			Adversary: row.adv,
			Seed:      row.seed,
			MaxRounds: goldenMaxRounds,
		})
	}
	return specs
}

func newGoldenWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := service.New(service.Config{JobWorkers: 2})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Shutdown(context.Background())
	})
	return hs
}

// TestDistributedGoldenMergeEquivalence is the acceptance gate of the
// cluster tier: RunDistributed over ≥2 workers reproduces the local
// execution of all golden rows bit for bit, and the sweep-shaped aggregates
// of the merged results equal the single-node sweep layer's aggregates
// exactly (no float drift through the JSON wire or the merge).
func TestDistributedGoldenMergeEquivalence(t *testing.T) {
	specs := goldenSpecs(t)
	w1, w2 := newGoldenWorker(t), newGoldenWorker(t)

	dist, err := dynspread.RunDistributed(context.Background(), dynspread.RunRequest{Trials: specs},
		dynspread.DistributedConfig{Workers: []string{w1.URL, w2.URL}, ShardSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	local, err := dynspread.RunSpecs(context.Background(), specs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != len(specs) || len(local) != len(specs) {
		t.Fatalf("result counts: dist %d local %d want %d", len(dist), len(local), len(specs))
	}
	for i := range specs {
		if !reflect.DeepEqual(dist[i], local[i]) {
			t.Fatalf("golden row %d diverged across the cluster:\n dist  %+v\n local %+v", i, dist[i], local[i])
		}
	}

	// The golden rows themselves still hold over the distributed path.
	rowAt := 0
	for _, row := range goldenRows {
		if testing.Short() && !row.completed {
			continue
		}
		r := dist[rowAt]
		rowAt++
		m := r.Metrics
		got := goldenRow{row.alg, row.adv, row.sources, row.seed,
			r.Completed, r.Rounds, m.Messages, m.Broadcasts, m.Learnings, m.TC, m.Removals}
		if got != row {
			t.Errorf("distributed run diverged from the golden table:\n got  %+v\n want %+v", got, row)
		}
	}

	// Aggregate merge-equivalence against the sweep layer (sweep.Run is
	// what RunGrid executes; the golden rows are not grid-expressible, so
	// the trial-list entry point is the apples-to-apples comparison).
	trials := make([]sweep.Trial, len(specs))
	for i, s := range specs {
		trials[i] = sweep.Trial{
			N: s.N, K: s.K, Sources: s.Sources,
			Algorithm: s.Algorithm, Adversary: s.Adversary,
			Seed: s.Seed, MaxRounds: s.MaxRounds,
		}
	}
	sweepResults, err := sweep.Run(context.Background(), trials, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		dist  func(wire.TrialResult) float64
		local func(sweep.Result) float64
	}
	for name, p := range map[string]pair{
		"messages":  {cluster.Messages, sweep.Messages},
		"rounds":    {cluster.Rounds, sweep.Rounds},
		"tc":        {cluster.TC, sweep.TC},
		"amortized": {cluster.AmortizedPerToken, sweep.AmortizedPerToken},
	} {
		got, want := cluster.Aggregate(dist, p.dist), sweep.Aggregate(sweepResults, p.local)
		if got != want {
			t.Errorf("%s aggregates diverged:\n dist  %+v\n sweep %+v", name, got, want)
		}
	}
}

// TestRunDistributedStoreWarmRun: a second RunDistributed against the same
// store directory answers entirely from disk — the workers see zero new
// requests — and returns identical results.
func TestRunDistributedStoreWarmRun(t *testing.T) {
	w := newGoldenWorker(t)
	dir := t.TempDir()
	req := dynspread.RunRequest{Grid: &dynspread.GridSpec{
		Ns: []int{12}, Ks: []int{8},
		Algorithms:  []string{"single-source"},
		Adversaries: []string{"static", "churn"},
		Seeds:       []int64{1, 2, 3},
	}}
	cfg := dynspread.DistributedConfig{Workers: []string{w.URL}, StoreDir: dir}

	first, err := dynspread.RunDistributed(context.Background(), req, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the only worker: a warm store must not need it at all.
	w.Close()
	second, err := dynspread.RunDistributed(context.Background(), req, cfg)
	if err != nil {
		t.Fatalf("warm run touched the dead worker: %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("warm run results diverged")
	}
}
