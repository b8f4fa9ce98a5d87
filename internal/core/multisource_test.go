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

func balancedAssign(t *testing.T, n, k, s int) *token.Assignment {
	t.Helper()
	a, err := token.Balanced(n, k, s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func runMulti(t *testing.T, assign *token.Assignment, adv sim.Adversary, maxRounds int) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		Assign:    assign,
		Unicast:   NewMultiSource(),
		Adversary: adv,
		MaxRounds: maxRounds,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMultiSourceStatic(t *testing.T) {
	n, k, s := 10, 9, 3
	res := runMulti(t, balancedAssign(t, n, k, s), staticAdv(graph.Cycle(n)), 0)
	if !res.Completed {
		t.Fatalf("incomplete after %d rounds", res.Rounds)
	}
	if res.Metrics.Learnings != int64(k*(n-1)) {
		t.Fatalf("learnings = %d", res.Metrics.Learnings)
	}
	if res.Metrics.TokenPayloads != int64(k*(n-1)) {
		t.Fatalf("token payloads = %d, want %d", res.Metrics.TokenPayloads, k*(n-1))
	}
}

func TestMultiSourceGossip(t *testing.T) {
	// n-gossip: every node is a source with one token.
	n := 12
	a, err := token.Gossip(n)
	if err != nil {
		t.Fatal(err)
	}
	res := runMulti(t, a, staticAdv(graph.Complete(n)), 0)
	if !res.Completed {
		t.Fatalf("incomplete after %d rounds", res.Rounds)
	}
}

func TestMultiSourceSingleSourceDegenerate(t *testing.T) {
	// s=1 must behave like Algorithm 1 (same bounds).
	n, k := 10, 6
	a := singleAssign(t, n, k)
	res := runMulti(t, a, staticAdv(graph.Path(n)), 0)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if res.Metrics.TokenPayloads != int64(k*(n-1)) {
		t.Fatalf("token payloads = %d", res.Metrics.TokenPayloads)
	}
}

func TestMultiSourceChurnStable(t *testing.T) {
	n, k, s := 14, 12, 4
	churn, err := adversary.NewChurn(n, adversary.ChurnOpts{Sigma: 3}, 21)
	if err != nil {
		t.Fatal(err)
	}
	res := runMulti(t, balancedAssign(t, n, k, s), adversary.Oblivious(churn), 0)
	if !res.Completed {
		t.Fatalf("incomplete after %d rounds", res.Rounds)
	}
	// Theorem 3.6: O(nk) rounds under 3-edge stability.
	if res.Rounds > 10*n*k {
		t.Fatalf("rounds = %d > 10nk", res.Rounds)
	}
}

func TestMultiSourceCompetitiveBound(t *testing.T) {
	// Theorem 3.5: Messages − TC ≤ c(n²s + nk) under the request cutter.
	n, k, s := 12, 10, 3
	adv, err := adversary.NewRequestCutter(n, 0.5, 13)
	if err != nil {
		t.Fatal(err)
	}
	res := runMulti(t, balancedAssign(t, n, k, s), adv, 400000)
	if !res.Completed {
		t.Fatalf("incomplete after %d rounds", res.Rounds)
	}
	residual := res.Metrics.Competitive(1)
	bound := 8 * float64(n*n*s+n*k)
	if residual > bound {
		t.Fatalf("residual %g > %g; messages=%d TC=%d",
			residual, bound, res.Metrics.Messages, res.Metrics.TC)
	}
}

func TestMultiSourceTokenOncePerNode(t *testing.T) {
	n, k, s := 10, 8, 4
	adv, err := adversary.NewRequestCutter(n, 0.5, 31)
	if err != nil {
		t.Fatal(err)
	}
	res := runMulti(t, balancedAssign(t, n, k, s), adv, 400000)
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if res.Metrics.TokenPayloads != int64(k*(n-1)) {
		t.Fatalf("token payloads = %d, want exactly %d", res.Metrics.TokenPayloads, k*(n-1))
	}
}

// Property: MultiSource completes for random (n, k, s) on random connected
// static graphs and satisfies exact-delivery accounting.
func TestQuickMultiSourceRandomInstances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 4
		s := rng.Intn(n/2) + 1
		k := s + rng.Intn(10)
		assign, err := token.Balanced(n, k, s)
		if err != nil {
			return false
		}
		g := graph.RandomConnected(n, n+rng.Intn(n), rng)
		res, err := sim.Run(sim.Config{
			Assign:    assign,
			Unicast:   NewMultiSource(),
			Adversary: staticAdv(g),
			Seed:      seed,
		})
		if err != nil {
			return false
		}
		return res.Completed && res.Metrics.TokenPayloads == int64(k*(n-1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNewMultiSourceWithExplicitOwnership(t *testing.T) {
	// Phase-2 style construction: node 0 owns tokens {2,0}, node 1 owns
	// {1}; engine assignment places them accordingly.
	a, err := token.NewAssignment(4, []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	factory := func(env sim.NodeEnv) sim.Protocol {
		var owned []OwnedToken
		switch env.ID {
		case 0:
			owned = []OwnedToken{{Global: 0, Index: 1, Count: 2}, {Global: 2, Index: 2, Count: 2}}
		case 1:
			owned = []OwnedToken{{Global: 1, Index: 1, Count: 1}}
		}
		return NewMultiSourceWith(env, owned)
	}
	res, err := sim.Run(sim.Config{
		Assign:    a,
		Unicast:   factory,
		Adversary: staticAdv(graph.Path(4)),
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
}
