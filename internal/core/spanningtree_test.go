package core

import (
	"math/rand"
	"testing"

	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

func TestSpanningTreeCompletesLinearRounds(t *testing.T) {
	// O(n + k) rounds on static graphs (intro baseline).
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(16)},
		{"star", graph.Star(16)},
		{"complete", graph.Complete(16)},
		{"random", graph.RandomConnected(16, 40, rand.New(rand.NewSource(2)))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, k := 16, 24
			assign, err := token.SingleSource(n, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(sim.Config{
				Assign:    assign,
				Unicast:   NewSpanningTree(),
				Adversary: staticAdv(tc.g),
				Seed:      1,
				MaxRounds: 10 * (n + k),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("incomplete after %d rounds", res.Rounds)
			}
			if res.Rounds > 4*(n+k) {
				t.Fatalf("rounds = %d > 4(n+k)", res.Rounds)
			}
			// Token payloads: exactly k per non-source node (down-tree
			// delivery, no duplicates).
			if res.Metrics.TokenPayloads != int64(k*(n-1)) {
				t.Fatalf("token payloads = %d, want %d", res.Metrics.TokenPayloads, k*(n-1))
			}
			// Control cost ≤ 2 per edge (invite each way) + accepts ≤ n.
			maxCtrl := int64(2*tc.g.M() + n)
			if res.Metrics.ControlPayloads > maxCtrl {
				t.Fatalf("control payloads = %d > %d", res.Metrics.ControlPayloads, maxCtrl)
			}
		})
	}
}

func TestSpanningTreeAmortizedMessages(t *testing.T) {
	// Amortized messages per token approach O(n) for large k: total =
	// O(m + nk), so with k >= n it is O(n) per token.
	n, k := 12, 48
	assign, err := token.SingleSource(n, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Assign:    assign,
		Unicast:   NewSpanningTree(),
		Adversary: staticAdv(graph.Complete(n)),
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if am := res.Metrics.AmortizedPerToken(k); am > float64(3*n) {
		t.Fatalf("amortized %g > 3n", am)
	}
}

func TestSpanningTreeMultiRoot(t *testing.T) {
	// With several sources, each builds its own invitation wave; the first
	// invite wins. Tokens from all sources must still arrive everywhere.
	n := 10
	assign, err := token.Balanced(n, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Assign:    assign,
		Unicast:   NewSpanningTree(),
		Adversary: staticAdv(graph.Complete(n)),
		Seed:      3,
		MaxRounds: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Multi-root spanning forests do NOT solve dissemination across trees —
	// this documents the baseline's limitation (tokens stay inside each
	// tree). The run must simply not error; completion is not guaranteed.
	_ = res
}
