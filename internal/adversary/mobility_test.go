package adversary

import (
	"testing"

	"dynspread/internal/core"
	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

func TestRotatingStarShape(t *testing.T) {
	s, err := NewRotatingStar(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	g1 := s.Graph(1)
	if g1.M() != 5 || len(g1.NeighborsShared(0)) != 5 {
		t.Fatalf("round 1: M=%d deg(0)=%d", g1.M(), len(g1.NeighborsShared(0)))
	}
	g2 := s.Graph(2)
	if len(g2.NeighborsShared(1)) != 5 {
		t.Fatalf("round 2 center should be 1, deg = %d", len(g2.NeighborsShared(1)))
	}
	// Period 3: center advances every 3 rounds.
	p, err := NewRotatingStar(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Graph(1).NeighborsShared(0)) != 5 || len(p.Graph(3).NeighborsShared(0)) != 5 || len(p.Graph(4).NeighborsShared(1)) != 5 {
		t.Fatal("period rotation wrong")
	}
	if _, err := NewRotatingStar(1, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestRotatingStarSingleSourceCompletes(t *testing.T) {
	// The star re-wires ~2(n−1) edges per rotation, all charged to TC;
	// Algorithm 1 must still finish and its competitive residual stay small.
	n, k := 12, 8
	assign, err := token.SingleSource(n, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	star, err := NewRotatingStar(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunUnicast(sim.UnicastConfig{
		Assign:    assign,
		Factory:   core.NewMultiSource(),
		Adversary: Oblivious(star),
		Seed:      1,
		MaxRounds: 400 * n * k,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete after %d rounds", res.Rounds)
	}
	if res.Metrics.Competitive(1) > 8*float64(n*n+n*k) {
		t.Fatalf("residual %g too large", res.Metrics.Competitive(1))
	}
}

func TestMobilityConnectedSequence(t *testing.T) {
	m, err := NewMobility(20, MobilityOpts{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var prev *graph.Graph
	changed := false
	for r := 1; r <= 40; r++ {
		g := m.Graph(r)
		if !g.Connected() {
			t.Fatalf("round %d disconnected", r)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if prev != nil && !g.Equal(prev) {
			changed = true
		}
		prev = g
	}
	if !changed {
		t.Fatal("mobility produced a static sequence")
	}
}

func TestMobilityDefaultsAndErrors(t *testing.T) {
	if _, err := NewMobility(1, MobilityOpts{}, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	m, err := NewMobility(10, MobilityOpts{World: 2, Radius: 0.5, Speed: 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestMobilityDisseminationCompletes(t *testing.T) {
	n := 16
	assign, err := token.Gossip(n)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMobility(n, MobilityOpts{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunUnicast(sim.UnicastConfig{
		Assign:    assign,
		Factory:   core.NewMultiSource(),
		Adversary: Oblivious(m),
		Seed:      2,
		MaxRounds: 300000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete after %d rounds", res.Rounds)
	}
}
