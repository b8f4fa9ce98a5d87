package core

import (
	"testing"

	"dynspread/internal/adversary"
	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

func TestTopkisLinearRoundsOnStatic(t *testing.T) {
	// Topkis [39]: O(n + k) rounds on any static connected graph.
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(16)},
		{"cycle", graph.Cycle(16)},
		{"complete", graph.Complete(16)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, k := 16, 32
			assign, err := token.SingleSource(n, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunUnicast(sim.UnicastConfig{
				Assign:    assign,
				Factory:   NewTopkis(),
				Adversary: staticAdv(tc.g),
				MaxRounds: 20 * (n + k),
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
		})
	}
}

func TestTopkisGossip(t *testing.T) {
	n := 10
	assign, err := token.Gossip(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunUnicast(sim.UnicastConfig{
		Assign:    assign,
		Factory:   NewTopkis(),
		Adversary: staticAdv(graph.Cycle(n)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
}

func TestTopkisMessageHungryVsAlgorithm1(t *testing.T) {
	// The contrast the paper draws: on a dense static graph Topkis spends
	// ~m messages per round while Algorithm 1 requests precisely. For
	// k << n·m the single-source algorithm must use fewer messages.
	n, k := 16, 8
	assign, err := token.SingleSource(n, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Complete(n)
	run := func(f sim.Factory) *sim.Result {
		res, err := sim.RunUnicast(sim.UnicastConfig{
			Assign:    assign,
			Factory:   f,
			Adversary: staticAdv(g),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("incomplete")
		}
		return res
	}
	topkis := run(NewTopkis())
	alg1 := run(NewMultiSource())
	if alg1.Metrics.Messages >= topkis.Metrics.Messages {
		t.Fatalf("Algorithm 1 (%d msgs) should beat Topkis (%d msgs) on K_%d",
			alg1.Metrics.Messages, topkis.Metrics.Messages, n)
	}
}

func TestTopkisUnderChurn(t *testing.T) {
	// Topkis makes no dynamic guarantee but should still finish under mild
	// stable churn (it pushes on every edge).
	n, k := 12, 6
	assign, err := token.SingleSource(n, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := adversary.NewChurn(n, adversary.ChurnOpts{Sigma: 3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunUnicast(sim.UnicastConfig{
		Assign:    assign,
		Factory:   NewTopkis(),
		Adversary: adversary.Oblivious(churn),
		MaxRounds: 100 * n * k,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
}
