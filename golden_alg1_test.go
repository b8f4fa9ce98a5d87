package dynspread_test

// Algorithm 1 golden rows at the shapes the end-to-end benchmark runs
// through the single-source entry (bench/: sweep-dynamic's n = k = 32
// dynamic cell, sweep-static's n = 64, k = 512, service-open's n = 16,
// k = 8 and cluster-store's n = k = 24), plus E9's random request priority
// and E11's Lemma 3.3 instrumentation. goldenRows pins single-source only at
// n = k = 10 and with neither experiment hook. These rows were recorded from
// Algorithm 1's standalone implementation, before the single-source entry
// became Multi-Source-Unicast with one source, and must never be edited to
// make a change pass.

import (
	"fmt"
	"testing"

	"dynspread/internal/adversary"
	"dynspread/internal/core"
	"dynspread/internal/registry"
	"dynspread/internal/sim"
	"dynspread/internal/sweep"
	"dynspread/internal/token"
)

// alg1Row is one Algorithm 1 execution: the instance, then the whole
// sim.Result with Metrics flattened in declaration order.
type alg1Row struct {
	n, k int
	adv  string
	seed int64

	completed                                        bool
	rounds                                           int
	messages, broadcasts, tokens, requests, announce int64
	walks, control, learnings, tc, removals          int64
}

var alg1BenchRows = []alg1Row{
	// sweep-dynamic
	{32, 32, "churn", 1, true, 98, 2343, 0, 992, 1044, 307, 0, 0, 992, 440, 376},
	{32, 32, "churn", 7, true, 132, 2442, 0, 992, 1066, 384, 0, 0, 992, 576, 512},
	{32, 32, "markovian", 1, true, 111, 2782, 0, 992, 1233, 557, 0, 0, 992, 2323, 2211},
	{32, 32, "markovian", 7, true, 133, 2706, 0, 992, 1253, 461, 0, 0, 992, 2662, 2559},
	{32, 32, "rewire", 1, true, 1535, 9565, 0, 992, 7671, 902, 0, 0, 992, 85541, 85477},
	{32, 32, "rewire", 7, true, 1406, 9548, 0, 992, 7596, 960, 0, 0, 992, 78328, 78264},
	{32, 32, "regular", 1, true, 836, 7530, 0, 992, 5651, 887, 0, 0, 992, 61638, 61550},
	{32, 32, "regular", 7, true, 751, 7402, 0, 992, 5458, 952, 0, 0, 992, 55202, 55113},
	{32, 32, "request-cutter", 1, true, 707, 3581, 0, 992, 1869, 720, 0, 0, 992, 1817, 1571},
	{32, 32, "request-cutter", 7, true, 750, 3627, 0, 992, 1900, 735, 0, 0, 992, 1884, 1638},
	// sweep-static
	{64, 512, "static", 1, true, 2226, 64767, 0, 32256, 32256, 255, 0, 0, 32256, 128, 0},
	{64, 512, "static", 7, true, 2095, 64766, 0, 32256, 32256, 254, 0, 0, 32256, 128, 0},
	// service-open
	{16, 8, "churn", 1, true, 29, 343, 0, 120, 133, 90, 0, 0, 120, 84, 52},
	{16, 8, "churn", 7, true, 28, 324, 0, 120, 125, 79, 0, 0, 120, 81, 49},
	{16, 8, "markovian", 1, true, 38, 404, 0, 120, 153, 131, 0, 0, 120, 210, 187},
	{16, 8, "markovian", 7, true, 39, 362, 0, 120, 142, 100, 0, 0, 120, 223, 202},
	{16, 8, "static", 1, true, 26, 302, 0, 120, 120, 62, 0, 0, 120, 32, 0},
	{16, 8, "static", 7, true, 29, 303, 0, 120, 120, 63, 0, 0, 120, 32, 0},
	// cluster-store
	{24, 24, "churn", 1, true, 92, 1388, 0, 552, 593, 243, 0, 0, 552, 306, 258},
	{24, 24, "churn", 7, true, 71, 1335, 0, 552, 588, 195, 0, 0, 552, 249, 201},
}

// runAlg1 runs tr through the single-source entry.
func runAlg1(t *testing.T, tr sweep.Trial) alg1Row {
	t.Helper()
	tr.Algorithm = "single-source"
	res, err := sweep.RunTrial(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, m := res.Res, res.Res.Metrics
	if m.Rounds != r.Rounds {
		t.Fatalf("Metrics.Rounds %d != Rounds %d", m.Rounds, r.Rounds)
	}
	return alg1Row{tr.N, tr.K, tr.Adversary, tr.Seed, r.Completed, r.Rounds,
		m.Messages, m.Broadcasts, m.TokenPayloads, m.RequestPayloads, m.CompletenessPayloads,
		m.WalkPayloads, m.ControlPayloads, m.Learnings, m.TC, m.Removals}
}

func TestAlg1GoldenBenchShapes(t *testing.T) {
	for _, row := range alg1BenchRows {
		t.Run(fmt.Sprintf("n%d/k%d/%s/seed%d", row.n, row.k, row.adv, row.seed), func(t *testing.T) {
			if got := runAlg1(t, sweep.Trial{N: row.n, K: row.k, Adversary: row.adv, Seed: row.seed}); got != row {
				t.Errorf("Algorithm 1 diverged:\n got  %#v\n want %#v", got, row)
			}
		})
	}
}

// TestAlg1GoldenRandomPriority pins E9's ablation: the request candidates
// in a uniformly random order drawn from each node's RNG.
func TestAlg1GoldenRandomPriority(t *testing.T) {
	const n, k = 24, 48
	// The paper's priority gives 611 rounds and 3,400 messages here.
	want := alg1Row{n, k, "request-cutter", 1, true, 613, 3432, 0, 1104, 1814, 514, 0, 0, 1104, 1554, 1312}
	got := runAlg1(t, sweep.Trial{
		N: n, K: k, Adversary: "request-cutter", Seed: 1,
		MaxRounds: 800 * n * k,
		Options:   core.SingleSourceOpts{RandomPriority: true},
	})
	if got != want {
		t.Errorf("Algorithm 1 with random priority diverged:\n got  %#v\n want %#v", got, want)
	}
}

// TestAlg1GoldenFutileStats pins E11's instrumentation on its quick-scale
// n = 16 row at seed 1: σ = 3 churn seeded seed + n, stability checked.
func TestAlg1GoldenFutileStats(t *testing.T) {
	const n, k, seed = 16, 32, 1
	assign, err := token.SingleSource(n, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := adversary.NewChurn(n, adversary.ChurnOpts{Sigma: 3}, seed+n)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := registry.LookupAlgorithm("single-source")
	if err != nil {
		t.Fatal(err)
	}
	stats := core.NewSingleSourceStats()
	factory, err := alg.Unicast(registry.Params{
		N: n, K: k, Sources: 1, Seed: seed,
		Options: core.SingleSourceOpts{Stats: stats},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunUnicast(sim.UnicastConfig{
		Assign:         assign,
		Factory:        factory,
		Adversary:      adversary.Oblivious(churn),
		Seed:           seed,
		CheckStability: 3,
		MaxRounds:      100 * n * k,
	})
	if err != nil {
		t.Fatal(err)
	}
	type futileRow struct {
		completed        bool
		rounds           int
		lastRequestRound int
		contribRounds    int
		requestsByClass  [3]int64
	}
	got := futileRow{res.Completed, res.Rounds, stats.LastRequestRound,
		len(stats.ContribRequestRounds), stats.RequestsByClass}
	want := futileRow{true, 78, 77, 75, [3]int64{50, 16, 441}}
	if got != want {
		t.Errorf("Algorithm 1 stats diverged:\n got  %#v\n want %#v", got, want)
	}
}
