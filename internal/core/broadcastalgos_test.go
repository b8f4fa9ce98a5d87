package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dynspread/internal/adversary"
	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

func gossipAssign(t *testing.T, n int) *token.Assignment {
	t.Helper()
	a, err := token.Gossip(n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFloodingCompletesWithinNK(t *testing.T) {
	// The window argument guarantees completion within nk rounds on ANY
	// always-connected dynamic graph; check on static, churn and rewire.
	n := 12
	assign := gossipAssign(t, n)
	churn, err := adversary.NewChurn(n, adversary.ChurnOpts{Sigma: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rewire, err := adversary.NewRewire(n, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	advs := []sim.BroadcastAdversary{
		adversary.ObliviousBroadcast(adversary.NewStatic(graph.Path(n))),
		adversary.ObliviousBroadcast(churn),
		adversary.ObliviousBroadcast(rewire),
	}
	for _, adv := range advs {
		res, err := sim.RunBroadcast(sim.BroadcastConfig{
			Assign:    assign,
			Factory:   NewFlooding(0),
			Adversary: adv,
			MaxRounds: n*n + n,
			Seed:      1,
		})
		if err != nil {
			t.Fatalf("%s: %v", adv.Name(), err)
		}
		if !res.Completed {
			t.Fatalf("%s: flooding incomplete after %d rounds", adv.Name(), res.Rounds)
		}
		if res.Rounds > n*n {
			t.Fatalf("%s: %d rounds > nk", adv.Name(), res.Rounds)
		}
		// Broadcast accounting: at most n broadcasts per round.
		if res.Metrics.Broadcasts > int64(n)*int64(res.Rounds) {
			t.Fatalf("%s: broadcasts %d exceed n*rounds", adv.Name(), res.Metrics.Broadcasts)
		}
	}
}

func TestFloodingAmortizedQuadraticUpperBound(t *testing.T) {
	// Messages <= n per round, rounds <= nk, so amortized <= n². Verify the
	// accounting ties out on a concrete run.
	n := 10
	assign := gossipAssign(t, n)
	res, err := sim.RunBroadcast(sim.BroadcastConfig{
		Assign:    assign,
		Factory:   NewFlooding(0),
		Adversary: adversary.ObliviousBroadcast(adversary.NewStatic(graph.Cycle(n))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if am := res.Metrics.AmortizedPerToken(n); am > float64(n*n) {
		t.Fatalf("amortized %g > n²", am)
	}
}

func TestFloodingWindowSchedule(t *testing.T) {
	env := sim.NodeEnv{ID: 0, N: 4, K: 3, Initial: []token.ID{0, 1, 2}}
	f := NewFlooding(4)(env).(*Flooding)
	// Window 0 (rounds 1..4): token 0; window 1: token 1; window 3: token 0.
	for _, c := range []struct{ r, want int }{{1, 0}, {4, 0}, {5, 1}, {9, 2}, {13, 0}} {
		if got := f.Choose(c.r); got != c.want {
			t.Fatalf("Choose(%d) = %d, want %d", c.r, got, c.want)
		}
	}
	// A node missing the scheduled token stays silent.
	env2 := sim.NodeEnv{ID: 1, N: 4, K: 3, Initial: nil}
	f2 := NewFlooding(4)(env2).(*Flooding)
	if got := f2.Choose(1); got != token.None {
		t.Fatalf("holder of nothing chose %d", got)
	}
}

func TestFloodingZeroTokens(t *testing.T) {
	f := NewFlooding(0)(sim.NodeEnv{ID: 0, N: 4, K: 0}).(*Flooding)
	if f.Choose(1) != token.None {
		t.Fatal("k=0 should be silent")
	}
}

func TestRandomBroadcastCompletesOnStatic(t *testing.T) {
	// Against an oblivious static graph random broadcast eventually
	// completes (every token has positive per-round spread probability).
	n := 8
	assign := gossipAssign(t, n)
	res, err := sim.RunBroadcast(sim.BroadcastConfig{
		Assign:    assign,
		Factory:   NewRandomBroadcast(),
		Adversary: adversary.ObliviousBroadcast(adversary.NewStatic(graph.Complete(n))),
		Seed:      7,
		MaxRounds: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("random broadcast incomplete on complete graph")
	}
}

// TestQuickFloodingWindowInvariant checks the correctness core of flooding's
// O(nk)-round claim: on ANY always-connected dynamics, by the end of token
// τ's n-round window, every node knows τ (provided someone knew it at the
// window's start — true here since tokens start somewhere and windows only
// grow knowledge). Verified via the engine's per-round view on random churn
// and rewire adversaries.
func TestQuickFloodingWindowInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 4
		k := rng.Intn(6) + 1
		holders := make([]int, k)
		for i := range holders {
			holders[i] = rng.Intn(n)
		}
		assign, err := token.NewAssignment(n, holders)
		if err != nil {
			return false
		}
		var adv sim.BroadcastAdversary
		if seed%2 == 0 {
			c, err := adversary.NewChurn(n, adversary.ChurnOpts{Sigma: 1}, seed)
			if err != nil {
				return false
			}
			adv = adversary.ObliviousBroadcast(c)
		} else {
			rw, err := adversary.NewRewire(n, 0, seed)
			if err != nil {
				return false
			}
			adv = adversary.ObliviousBroadcast(rw)
		}
		res, err := sim.RunBroadcast(sim.BroadcastConfig{
			Assign:    assign,
			Factory:   NewFlooding(0),
			Adversary: adv,
			Seed:      seed,
			MaxRounds: n*k + n,
		})
		if err != nil || !res.Completed {
			return false
		}
		// The cut argument gives completion within k windows of n rounds:
		// every round of token τ's window, some edge crosses the
		// knower/non-knower cut and every knower broadcasts τ.
		return res.Rounds <= n*k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSilentBroadcastLimitsSpeakers(t *testing.T) {
	n := 10
	assign := gossipAssign(t, n)
	maxSpeakers := 0
	res, err := sim.RunBroadcast(sim.BroadcastConfig{
		Assign:    assign,
		Factory:   NewSilentBroadcast(2, 0),
		Adversary: adversary.ObliviousBroadcast(adversary.NewStatic(graph.Complete(n))),
		MaxRounds: 500,
		OnRound: func(_ int, _ graph.Diff, choices []token.ID, _ int64) {
			c := 0
			for _, ch := range choices {
				if ch != token.None {
					c++
				}
			}
			if c > maxSpeakers {
				maxSpeakers = c
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if maxSpeakers > 2 {
		t.Fatalf("silent broadcast let %d nodes speak", maxSpeakers)
	}
}
