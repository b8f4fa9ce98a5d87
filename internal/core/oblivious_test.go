package core

import (
	"testing"

	"dynspread/internal/adversary"
	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

func TestResolveObliviousParams(t *testing.T) {
	p := ResolveObliviousParams(256, 256, 256, ObliviousOpts{})
	if p.F < 1 || p.F > 256 {
		t.Fatalf("F = %d out of [1, n]", p.F)
	}
	if p.Gamma <= 0 {
		t.Fatalf("Gamma = %g", p.Gamma)
	}
	if p.Phase1Cap <= 0 {
		t.Fatalf("Phase1Cap = %d", p.Phase1Cap)
	}
	// s=1 is far below s0 at this size: single-phase.
	p1 := ResolveObliviousParams(256, 256, 1, ObliviousOpts{})
	if p1.TwoPhase {
		t.Fatal("s=1 should select plain MultiSource")
	}
	// ForceTwoPhase overrides.
	p2 := ResolveObliviousParams(256, 256, 1, ObliviousOpts{ForceTwoPhase: true})
	if !p2.TwoPhase {
		t.Fatal("ForceTwoPhase ignored")
	}
	// Multipliers apply.
	pa := ResolveObliviousParams(64, 64, 64, ObliviousOpts{CF: 2})
	pb := ResolveObliviousParams(64, 64, 64, ObliviousOpts{CF: 1})
	if pa.F <= pb.F && pb.F < 64 {
		t.Fatalf("CF=2 did not raise F (%d vs %d)", pa.F, pb.F)
	}
	if ResolveObliviousParams(1, 1, 1, ObliviousOpts{}).Phase1Cap <= 0 {
		t.Fatal("degenerate params broke")
	}
}

func TestObliviousSinglePhaseFallback(t *testing.T) {
	// Few sources: the factory must produce plain MultiSource behavior and
	// still complete.
	n, k, s := 12, 8, 2
	assign, err := token.Balanced(n, k, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunUnicast(sim.UnicastConfig{
		Assign:    assign,
		Factory:   NewOblivious(ObliviousOpts{Seed: 1}),
		Adversary: staticAdv(graph.Cycle(n)),
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if res.Metrics.WalkPayloads != 0 {
		t.Fatalf("single-phase run performed %d walk steps", res.Metrics.WalkPayloads)
	}
}

func TestObliviousTwoPhaseCompletes(t *testing.T) {
	// n-gossip with forced two-phase operation on an oblivious regular
	// dynamic graph: tokens must walk to centers, then disseminate.
	n := 24
	assign, err := token.Gossip(n)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := adversary.NewRegular(n, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunUnicast(sim.UnicastConfig{
		Assign:    assign,
		Factory:   NewOblivious(ObliviousOpts{Seed: 3, ForceTwoPhase: true, CF: 0.08}),
		Adversary: adversary.Oblivious(reg),
		Seed:      4,
		MaxRounds: 400000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete after %d rounds", res.Rounds)
	}
	if res.Metrics.WalkPayloads == 0 {
		t.Fatal("two-phase run performed no walk steps")
	}
}

func TestObliviousTwoPhaseUnderChurn(t *testing.T) {
	n := 16
	assign, err := token.Gossip(n)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := adversary.NewChurn(n, adversary.ChurnOpts{Sigma: 3, Edges: 3 * n}, 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunUnicast(sim.UnicastConfig{
		Assign:    assign,
		Factory:   NewOblivious(ObliviousOpts{Seed: 5, ForceTwoPhase: true, CF: 0.1}),
		Adversary: adversary.Oblivious(churn),
		Seed:      6,
		MaxRounds: 400000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete after %d rounds", res.Rounds)
	}
}

func TestObliviousPhase1CapForcesSwitch(t *testing.T) {
	// A tiny cap forces the phase switch before all tokens park; hosts
	// become owners of in-flight tokens and dissemination still completes.
	n := 14
	assign, err := token.Gossip(n)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := adversary.NewRegular(n, 4, 23)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunUnicast(sim.UnicastConfig{
		Assign:    assign,
		Factory:   NewOblivious(ObliviousOpts{Seed: 7, ForceTwoPhase: true, CF: 0.1, Phase1Cap: 2}),
		Adversary: adversary.Oblivious(reg),
		Seed:      8,
		MaxRounds: 400000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete after %d rounds", res.Rounds)
	}
}

func TestObliviousHighDegreeHandoff(t *testing.T) {
	// With a tiny CGamma every node is "high-degree", so phase 1 consists
	// purely of direct handoffs to neighboring centers (no random-walk
	// steps beyond them). On a complete graph every node sees every center,
	// so all tokens park within a couple of rounds.
	n := 12
	assign, err := token.Gossip(n)
	if err != nil {
		t.Fatal(err)
	}
	stats := &ObliviousStats{}
	res, err := sim.RunUnicast(sim.UnicastConfig{
		Assign: assign,
		Factory: NewOblivious(ObliviousOpts{
			Seed: 11, ForceTwoPhase: true, CF: 0.2, CGamma: 0.001, Stats: stats,
		}),
		Adversary: staticAdv(graph.Complete(n)),
		Seed:      12,
		MaxRounds: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete after %d rounds", res.Rounds)
	}
	if stats.Centers < 1 {
		t.Fatal("no centers recorded")
	}
	if stats.SwitchRound == 0 {
		t.Fatal("switch round not recorded")
	}
	if stats.SwitchRound > 2+((n-1+stats.Centers)/stats.Centers)+n {
		t.Fatalf("handoff too slow: switch at round %d with %d centers", stats.SwitchRound, stats.Centers)
	}
	if stats.ForcedSwitch {
		t.Fatal("handoff run should park all tokens, not force the switch")
	}
}

func TestObliviousStatsForcedSwitch(t *testing.T) {
	n := 12
	assign, err := token.Gossip(n)
	if err != nil {
		t.Fatal(err)
	}
	stats := &ObliviousStats{}
	reg, err := adversary.NewRegular(n, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunUnicast(sim.UnicastConfig{
		Assign: assign,
		Factory: NewOblivious(ObliviousOpts{
			Seed: 13, ForceTwoPhase: true, CF: 0.1, Phase1Cap: 1, Stats: stats,
		}),
		Adversary: adversary.Oblivious(reg),
		Seed:      14,
		MaxRounds: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if !stats.ForcedSwitch {
		t.Fatal("Phase1Cap=1 with few centers should force the switch")
	}
}

func TestObliviousRespectsK1(t *testing.T) {
	// One token walking to a center and disseminating.
	n := 10
	assign, err := token.SingleSource(n, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := adversary.NewRegular(n, 4, 29)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunUnicast(sim.UnicastConfig{
		Assign:    assign,
		Factory:   NewOblivious(ObliviousOpts{Seed: 9, ForceTwoPhase: true, CF: 0.15}),
		Adversary: adversary.Oblivious(reg),
		Seed:      10,
		MaxRounds: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
}

// TestObliviousFactoryReuse: the engine builds every node from the factory
// at the start of each execution, so running a factory a second time must
// give exactly a fresh factory's run. Phase 1's shared state (the centers,
// the parked count, the switch flag) belongs to one execution; reusing it
// would skip phase 1, and reusing it at a larger n would index past its
// centers.
func TestObliviousFactoryReuse(t *testing.T) {
	opts := ObliviousOpts{Seed: 3, ForceTwoPhase: true, CF: 0.08}
	run := func(f sim.Factory, n int) *sim.Result {
		t.Helper()
		assign, err := token.Gossip(n)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := adversary.NewRegular(n, 4, 11)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunUnicast(sim.UnicastConfig{
			Assign:    assign,
			Factory:   f,
			Adversary: adversary.Oblivious(reg),
			Seed:      4,
			MaxRounds: 400000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	reused := NewOblivious(opts)
	first := run(reused, 16)
	if first.Metrics.WalkPayloads == 0 {
		t.Fatal("two-phase run performed no walk steps")
	}
	if again := run(reused, 16); *again != *first {
		t.Fatalf("reused factory diverged from its first run:\n got  %+v\n want %+v", *again, *first)
	}
	fresh := run(NewOblivious(opts), 24)
	if larger := run(reused, 24); *larger != *fresh {
		t.Fatalf("reused factory at n=24 diverged from a fresh one:\n got  %+v\n want %+v", *larger, *fresh)
	}
}
