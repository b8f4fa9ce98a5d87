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

// TestMatrixAlgorithmsByAdversaries runs every unicast algorithm against
// every applicable adversary and checks completion plus the conservation
// law: learnings = k(n−1) for one-holder-per-token assignments.
func TestMatrixAlgorithmsByAdversaries(t *testing.T) {
	n, k, s := 12, 12, 4
	algos := []struct {
		name    string
		factory sim.Factory
	}{
		{"single-source", NewMultiSource()},
		{"multi-source", NewMultiSource()},
		{"oblivious", NewOblivious(ObliviousOpts{Seed: 1, CF: 0.2})},
		{"topkis", NewTopkis()},
	}
	advBuilders := []struct {
		name  string
		build func(seed int64) (sim.Adversary, error)
	}{
		{"static", func(seed int64) (sim.Adversary, error) {
			return staticAdv(graph.RandomConnected(n, 2*n, rand.New(rand.NewSource(seed)))), nil
		}},
		{"churn", func(seed int64) (sim.Adversary, error) {
			c, err := adversary.NewChurn(n, adversary.ChurnOpts{Sigma: 3}, seed)
			if err != nil {
				return nil, err
			}
			return adversary.Oblivious(c), nil
		}},
		{"markovian", func(seed int64) (sim.Adversary, error) {
			m, err := adversary.NewMarkovian(n, 0.08, 0.2, seed)
			if err != nil {
				return nil, err
			}
			return adversary.Oblivious(m), nil
		}},
		{"regular", func(seed int64) (sim.Adversary, error) {
			r, err := adversary.NewRegular(n, 4, seed)
			if err != nil {
				return nil, err
			}
			return adversary.Oblivious(r), nil
		}},
		{"request-cutter", func(seed int64) (sim.Adversary, error) {
			return adversary.NewRequestCutter(n, 0.4, seed)
		}},
	}
	for _, alg := range algos {
		for _, ab := range advBuilders {
			t.Run(alg.name+"/"+ab.name, func(t *testing.T) {
				src := s
				if alg.name == "single-source" {
					src = 1
				}
				assign, err := token.Balanced(n, k, src)
				if err != nil {
					t.Fatal(err)
				}
				adv, err := ab.build(int64(len(alg.name) * 131))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(sim.Config{
					Assign:    assign,
					Unicast:   alg.factory,
					Adversary: adv,
					Seed:      7,
					MaxRounds: 600000,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Completed {
					t.Fatalf("incomplete after %d rounds", res.Rounds)
				}
				if res.Metrics.Learnings != int64(k*(n-1)) {
					t.Fatalf("learnings = %d, want %d", res.Metrics.Learnings, k*(n-1))
				}
			})
		}
	}
}

// TestRequestAccountingInvariant checks the bookkeeping identity behind
// Theorem 3.1's proof: every request either yields a token in the next round
// or its edge was removed underneath it, so
//
//	RequestPayloads ≤ TokenPayloads + Removals + n
//
// (the +n slack covers requests in flight when the execution completes).
func TestRequestAccountingInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 4
		k := rng.Intn(20) + 1
		assign, err := token.SingleSource(n, k, rng.Intn(n))
		if err != nil {
			return false
		}
		cutter, err := adversary.NewRequestCutter(n, 0.5, seed)
		if err != nil {
			return false
		}
		res, err := sim.Run(sim.Config{
			Assign:    assign,
			Unicast:   NewMultiSource(),
			Adversary: cutter,
			Seed:      seed,
			MaxRounds: 600000,
		})
		if err != nil || !res.Completed {
			return false
		}
		m := res.Metrics
		return m.RequestPayloads <= m.TokenPayloads+m.Removals+int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCompletenessAnnouncementCap checks the R_v bookkeeping: single-source
// sends at most n(n−1) completeness announcements, multi-source at most
// s·n(n−1).
func TestCompletenessAnnouncementCap(t *testing.T) {
	n, k, s := 10, 8, 4
	assign, err := token.Balanced(n, k, s)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := adversary.NewRewire(n, n*n/4, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Assign:    assign,
		Unicast:   NewMultiSource(),
		Adversary: adversary.Oblivious(rw),
		Seed:      5,
		MaxRounds: 600000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if cap := int64(s * n * (n - 1)); res.Metrics.CompletenessPayloads > cap {
		t.Fatalf("completeness payloads %d > s·n(n−1) = %d", res.Metrics.CompletenessPayloads, cap)
	}
}

// wrongSizeAdv returns graphs over the wrong node count.
type wrongSizeAdv struct{}

func (wrongSizeAdv) Name() string                     { return "wrong-size" }
func (wrongSizeAdv) NextGraph(*sim.View) *graph.Graph { return graph.Path(3) }

func TestEngineRejectsWrongSizeGraph(t *testing.T) {
	assign, err := token.SingleSource(6, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(sim.Config{
		Assign:    assign,
		Unicast:   NewMultiSource(),
		Adversary: wrongSizeAdv{},
		MaxRounds: 5,
	})
	if err == nil {
		t.Fatal("wrong-size graph accepted")
	}
}

// TestSeedsSweepSingleSource exercises Algorithm 1 across many seeds under
// the adaptive cutter — a regression net for rare scheduling corner cases.
func TestSeedsSweepSingleSource(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	n, k := 10, 6
	for seed := int64(0); seed < 12; seed++ {
		assign, err := token.SingleSource(n, k, int(seed)%n)
		if err != nil {
			t.Fatal(err)
		}
		cutter, err := adversary.NewRequestCutter(n, 0.6, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Assign:    assign,
			Unicast:   NewMultiSource(),
			Adversary: cutter,
			Seed:      seed,
			MaxRounds: 600000,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Completed {
			t.Fatalf("seed %d: incomplete", seed)
		}
		if res.Metrics.TokenPayloads != int64(k*(n-1)) {
			t.Fatalf("seed %d: token payloads %d != %d", seed, res.Metrics.TokenPayloads, k*(n-1))
		}
	}
}

// TestBroadcastMatrixSeeds exercises flooding against the free-edge
// adversary across seeds (dense and sparse serving modes must both complete
// and both respect the potential bound).
func TestBroadcastMatrixSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	n := 12
	for seed := int64(0); seed < 6; seed++ {
		assign, err := token.Gossip(n)
		if err != nil {
			t.Fatal(err)
		}
		adv := adversary.NewFreeEdge(seed)
		res, err := sim.Run(sim.Config{
			Assign:    assign,
			Broadcast: NewFlooding(),
			Adversary: adv,
			Seed:      seed,
			MaxRounds: 4 * n * n,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("seed %d: incomplete", seed)
		}
		if adv.Stats().BoundViolations != 0 {
			t.Fatalf("seed %d: potential bound violated", seed)
		}
	}
}
