// Package experiments regenerates every table and figure of the paper's
// evaluation (plus the theorem bounds, which for this mostly analytical
// paper ARE the evaluation), one experiment per artifact:
//
//	E1  Theorem 2.3  — amortized local-broadcast lower bound Θ(n²) (up to logs)
//	E2  Fig. 1/Lemmas 2.1–2.2 — free-graph structure and sparse-round stalls
//	E3  Theorem 3.1  — single-source 1-competitive O(n²+nk) messages
//	E4  Theorem 3.4  — single-source O(nk) rounds under 3-edge stability
//	E5  Theorems 3.5/3.6 — multi-source O(n²s+nk) messages, O(nk) rounds
//	E6  Table 1/Theorem 3.8 — Algorithm 2 amortized messages vs k
//	E7  Lemma 3.7   — random-walk visit bound on d-regular dynamic graphs
//	E8  Introduction — static spanning-tree baseline O(n+k) rounds
//	E9  Ablation     — Algorithm 1 request-priority order
//	E10 Ablation     — Algorithm 2 center-density sweep (kL = fn² balance)
//	E11 Lemma 3.3   — futile-round count of Algorithm 1 (≤ n)
//	E12 Footnote 4  — strongly vs weakly adaptive adversary separation
//	E13 §3.2.2      — parallel-walk congestion delay (phase-1 running time)
//
// Each experiment returns a tablefmt.Table whose rows are printed by
// cmd/experiments into EXPERIMENTS.md and exercised by bench_test.go.
package experiments

import "dynspread/internal/tablefmt"

// Config selects the experiment scale.
type Config struct {
	// Quick shrinks instance sizes so the whole suite runs in seconds
	// (used by tests and benches); the full scale is for cmd/experiments.
	Quick bool
	// Seed derives all randomness.
	Seed int64
	// Trials is the number of repetitions averaged per row (default 3 full,
	// 1 quick).
	Trials int
}

func (c Config) trials() int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick {
		return 1
	}
	return 3
}

// pick returns q under Quick and f otherwise.
func (c Config) pick(q, f []int) []int {
	if c.Quick {
		return q
	}
	return f
}

// Runner is one experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Config) (*tablefmt.Table, error)
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"E1", "Theorem 2.3: local-broadcast amortized lower bound", E1LowerBound},
		{"E2", "Figure 1 / Lemmas 2.1-2.2: free-graph structure", E2FreeGraph},
		{"E3", "Theorem 3.1: single-source competitive messages", E3SingleSourceMessages},
		{"E4", "Theorem 3.4: single-source rounds (3-edge stable)", E4SingleSourceRounds},
		{"E5", "Theorems 3.5/3.6: multi-source messages and rounds", E5MultiSource},
		{"E6", "Table 1 / Theorem 3.8: oblivious amortized messages vs k", E6Table1},
		{"E7", "Lemma 3.7: random-walk visit bound", E7WalkVisits},
		{"E8", "Introduction: static spanning-tree baseline", E8StaticBaseline},
		{"E9", "Ablation: Algorithm 1 request priority", E9PriorityAblation},
		{"E10", "Ablation: Algorithm 2 center density", E10CenterSweep},
		{"E11", "Lemma 3.3: futile rounds of Algorithm 1", E11FutileRounds},
		{"E12", "Footnote 4: strong vs weak adaptivity", E12Adaptivity},
		{"E13", "Section 3.2.2: parallel-walk congestion", E13WalkCongestion},
	}
}
