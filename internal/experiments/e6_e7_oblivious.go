package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dynspread/internal/adversary"
	"dynspread/internal/core"
	"dynspread/internal/sweep"
	"dynspread/internal/tablefmt"
	"dynspread/internal/walk"
)

// E6Table1 reproduces Table 1 / Theorem 3.8: the amortized message
// complexity of Algorithm 2 for different token-set sizes k at fixed n, with
// tokens spread over s = n sources (the many-source regime the oblivious
// algorithm targets), against an oblivious near-regular dynamic graph.
// For contrast, each k also reports plain Multi-Source-Unicast, whose
// announcement term makes it quadratic when s is large while Algorithm 2's
// center reduction brings the cost down as k grows (the paper's
// O(n^{5/2}·log^{5/4}n / k^{3/4}) column).
//
// Scale note: at simulable n the paper's center parameter
// f = n^{1/2}k^{1/4}log^{5/4}n exceeds n (f ≈ 115 at n = k = 36), which
// would mark every node a center and reduce Algorithm 2 to plain
// Multi-Source-Unicast. The sweep therefore scales f with CF = 0.05, which
// leaves a handful of centers. The paper's constants do not carry over at
// this scale; the *shape* — amortized cost decreasing in k, beating
// MultiSource for large k — is the reproduced claim.
func E6Table1(cfg Config) (*tablefmt.Table, error) {
	n := 36
	if !cfg.Quick {
		n = 64
	}
	lg := math.Log2(float64(n))
	ks := []int{
		int(math.Pow(float64(n), 2.0/3.0) * math.Pow(lg, 5.0/3.0) / 4),
		n,
		int(math.Pow(float64(n), 1.5)),
	}
	if !cfg.Quick {
		ks = append(ks, n*n/4)
	}
	// Clamp to k >= n (s = n sources each need a token) and keep the sweep
	// strictly increasing so Table 1's monotonicity is read off directly.
	for i := range ks {
		if ks[i] < n {
			ks[i] = n
		}
	}
	sort.Ints(ks)
	ks = dedupeInts(ks)
	tb := &tablefmt.Table{
		Title:  fmt.Sprintf("E6 (Table 1, Theorem 3.8): amortized messages vs k at n=%d, s=n, oblivious regular dynamics", n),
		Header: []string{"k", "algorithm", "rounds", "messages", "walk msgs", "amortized/token", "paper shape n^2.5·log^1.25/k^.75 (scaled)"},
	}
	// One declarative grid: every k against both algorithms on the same
	// near-regular substrate. The grid expands k-major with algorithms
	// adjacent, which is exactly the table's row order. The ObliviousOpts
	// only apply to the "oblivious" rows; multi-source takes no options.
	results, err := sweep.RunGrid(context.Background(), sweep.Grid{
		Ns:          []int{n},
		Ks:          ks,
		Sources:     []int{n},
		Algorithms:  []string{"oblivious", "multi-source"},
		Adversaries: []string{"regular"},
		Seeds:       []int64{cfg.Seed},
		MaxRounds:   2000 * n,
		Options:     core.ObliviousOpts{Seed: cfg.Seed + 1, ForceTwoPhase: true, CF: 0.05},
	}, sweep.Options{})
	if err != nil {
		return nil, err
	}
	var oblK []int
	var oblAmort []float64
	for _, r := range results {
		k := r.Trial.K
		if !r.Res.Completed {
			return nil, fmt.Errorf("%s incomplete at k=%d (rounds=%d)", r.Trial.Algorithm, k, r.Res.Rounds)
		}
		paperShape := math.Pow(float64(n), 2.5) * math.Pow(lg, 1.25) / math.Pow(float64(k), 0.75)
		amort := r.Res.Metrics.AmortizedPerToken(k)
		if r.Trial.Algorithm == "oblivious" {
			tb.AddRowf(k, "Oblivious (Alg. 2)", r.Res.Rounds, r.Res.Metrics.Messages,
				r.Res.Metrics.WalkPayloads, amort, paperShape)
			oblK = append(oblK, k)
			oblAmort = append(oblAmort, amort)
		} else {
			tb.AddRowf(k, "MultiSource (direct)", r.Res.Rounds, r.Res.Metrics.Messages,
				0, amort, paperShape)
		}
	}
	// Table 1's shape as a check that can fail. The 15% allowance absorbs
	// noise: at -quick seeds 1–20 and 42 and full-scale seeds 1–3 and 42 the
	// largest ratio of a row to its predecessor was 1.015 (full scale, seed
	// 42, first two k).
	if i := firstRise(oblAmort, 1.15); i > 0 {
		return nil, fmt.Errorf("amortized cost of Algorithm 2 rose more than 15%% with k: %.1f at k=%d, %.1f at k=%d",
			oblAmort[i-1], oblK[i-1], oblAmort[i], oblK[i])
	}
	tb.Notes = "Paper's Table 1 shape: amortized cost decreases as k grows (k^{-3/4} trend). Observed monotone (±15%): true."
	return tb, nil
}

// firstRise returns the first index i at which xs[i] exceeds xs[i-1] by more
// than the given factor, or -1 if none does.
func firstRise(xs []float64, factor float64) int {
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[i-1]*factor {
			return i
		}
	}
	return -1
}

// E7WalkVisits reproduces Lemma 3.7: on a d-regular dynamic graph chosen by
// an oblivious adversary, the number of visits of a t-step random walk to
// any fixed node stays below 2^{c+3}·d·√(t+1)·log n w.h.p.
func E7WalkVisits(cfg Config) (*tablefmt.Table, error) {
	ns := cfg.pick([]int{32, 64}, []int{32, 64, 128})
	ts := cfg.pick([]int{500, 2000}, []int{1000, 4000, 16000})
	tb := &tablefmt.Table{
		Title:  "E7 (Lemma 3.7): random-walk max visits vs bound on d-regular oblivious dynamics",
		Header: []string{"n", "d", "t", "max visits", "bound (c=1)", "ratio", "distinct visited"},
	}
	for _, n := range ns {
		for _, d := range []int{4, 8} {
			for _, t := range ts {
				seq, err := adversary.NewRegular(n, d, cfg.Seed+int64(n*d))
				if err != nil {
					return nil, err
				}
				rng := rand.New(rand.NewSource(cfg.Seed + int64(t)))
				res, err := walk.Visits(seq.Graph, n, 0, t, rng)
				if err != nil {
					return nil, err
				}
				bound := walk.Lemma37Bound(1, d, t, n)
				if float64(res.MaxVisits) >= bound {
					return nil, fmt.Errorf("visit bound violated: n=%d d=%d t=%d visits=%d bound=%g",
						n, d, t, res.MaxVisits, bound)
				}
				tb.AddRowf(n, d, t, res.MaxVisits, bound, float64(res.MaxVisits)/bound, res.Distinct)
			}
		}
	}
	tb.Notes = "Lemma 3.7 predicts ratio < 1 for every row (and it is loose: ratios are far below 1)."
	return tb, nil
}

// dedupeInts removes consecutive duplicates from a sorted slice.
func dedupeInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
