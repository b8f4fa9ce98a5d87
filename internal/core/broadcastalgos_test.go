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
	advs := []sim.Adversary{
		adversary.Oblivious(adversary.NewStatic(graph.Path(n))),
		adversary.Oblivious(churn),
		adversary.Oblivious(rewire),
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
		Adversary: adversary.Oblivious(adversary.NewStatic(graph.Cycle(n))),
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

// floodingChoices runs flooding with the given window on a static path,
// all k tokens starting at node 0, for at most rounds rounds, and returns
// the committed choices of every round (choices[r-1][v]).
func floodingChoices(t *testing.T, n, k, window, rounds int) ([][]token.ID, *sim.Result) {
	t.Helper()
	assign, err := token.SingleSource(n, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	var choices [][]token.ID
	res, err := sim.RunBroadcast(sim.BroadcastConfig{
		Assign:    assign,
		Factory:   NewFlooding(window),
		Adversary: adversary.Oblivious(adversary.NewStatic(graph.Path(n))),
		MaxRounds: rounds,
		OnRound: func(_ int, _ graph.Diff, c []token.ID, _ int64) {
			choices = append(choices, append([]token.ID(nil), c...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return choices, res
}

func TestFloodingWindowSchedule(t *testing.T) {
	// On a path of 8 a window of 4 rounds carries each token 4 hops, so
	// the schedule wraps around (round 13) before anyone completes.
	choices, res := floodingChoices(t, 8, 3, 4, 13)
	if res.Completed || len(choices) != 13 {
		t.Fatalf("completed=%v after %d observed rounds, want 13 incomplete rounds", res.Completed, len(choices))
	}
	// Window 0 (rounds 1..4): token 0; window 1: token 1; window 3: token 0.
	for _, c := range []struct{ r, want int }{{1, 0}, {4, 0}, {5, 1}, {9, 2}, {13, 0}} {
		if got := choices[c.r-1][0]; got != c.want {
			t.Fatalf("round %d: source chose %d, want %d", c.r, got, c.want)
		}
	}
	// A node missing the scheduled token stays silent.
	if got := choices[0][7]; got != token.None {
		t.Fatalf("holder of nothing chose %d", got)
	}
}

// everyNth asks the wrapped protocol to choose only in every nth round,
// as SilentBroadcast asks only its broadcasters.
type everyNth struct {
	inner sim.BroadcastProtocol
	nth   int
}

func (p everyNth) Choose(r int) token.ID {
	if r%p.nth != 0 {
		return token.None
	}
	return p.inner.Choose(r)
}

func (p everyNth) Deliver(r int, learned []token.ID) { p.inner.Deliver(r, learned) }

// TestFloodingScheduleAfterSkippedRounds: flooding keeps its window's token
// between calls, so a node asked only every 5th round, with windows of 2
// rounds, passes whole windows between calls and must still choose the
// token of the window r falls in.
func TestFloodingScheduleAfterSkippedRounds(t *testing.T) {
	const n, k, window, nth, rounds = 8, 3, 2, 5, 40
	assign, err := token.SingleSource(n, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	flood := NewFlooding(window)
	var source []token.ID
	_, err = sim.RunBroadcast(sim.BroadcastConfig{
		Assign:    assign,
		Factory:   func(env sim.NodeEnv) sim.BroadcastProtocol { return everyNth{flood(env), nth} },
		Adversary: adversary.Oblivious(adversary.NewStatic(graph.Path(n))),
		MaxRounds: rounds,
		OnRound: func(_ int, _ graph.Diff, c []token.ID, _ int64) {
			source = append(source, c[0])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(source) != rounds {
		t.Fatalf("observed %d rounds, want %d", len(source), rounds)
	}
	for r := nth; r <= rounds; r += nth {
		if got, want := source[r-1], ((r-1)/window)%k; got != want {
			t.Fatalf("round %d: source chose %d, want window %d's token %d", r, got, (r-1)/window, want)
		}
	}
}

func TestFloodingZeroTokens(t *testing.T) {
	choices, res := floodingChoices(t, 4, 0, 0, 10)
	if !res.Completed || res.Rounds != 0 || res.Metrics.Broadcasts != 0 || len(choices) != 0 {
		t.Fatalf("k=0 should be silent: completed=%v rounds=%d broadcasts=%d observed=%d",
			res.Completed, res.Rounds, res.Metrics.Broadcasts, len(choices))
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
		Adversary: adversary.Oblivious(adversary.NewStatic(graph.Complete(n))),
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
		var adv sim.Adversary
		if seed%2 == 0 {
			c, err := adversary.NewChurn(n, adversary.ChurnOpts{Sigma: 1}, seed)
			if err != nil {
				return false
			}
			adv = adversary.Oblivious(c)
		} else {
			rw, err := adversary.NewRewire(n, 0, seed)
			if err != nil {
				return false
			}
			adv = adversary.Oblivious(rw)
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
		Adversary: adversary.Oblivious(adversary.NewStatic(graph.Complete(n))),
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
