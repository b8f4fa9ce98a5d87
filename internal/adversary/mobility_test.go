package adversary

import (
	"testing"

	"dynspread/internal/core"
	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

func TestRotatingStarShape(t *testing.T) {
	s, err := NewRotatingStar(6)
	if err != nil {
		t.Fatal(err)
	}
	g1 := s.Graph(1)
	if g1.M() != 5 || len(g1.NeighborsShared(0)) != 5 {
		t.Fatalf("round 1: M=%d deg(0)=%d", g1.M(), len(g1.NeighborsShared(0)))
	}
	// Each center holds for two rounds, and the rotation wraps after n.
	for _, c := range []struct{ r, center int }{{2, 0}, {3, 1}, {4, 1}, {12, 5}, {13, 0}} {
		if deg := len(s.Graph(c.r).NeighborsShared(c.center)); deg != 5 {
			t.Fatalf("round %d: center should be %d, its degree is %d", c.r, c.center, deg)
		}
	}
	if _, err := NewRotatingStar(1); err == nil {
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
	star, err := NewRotatingStar(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Assign:    assign,
		Unicast:   core.NewMultiSource(),
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
	m, err := NewMobility(20, 5)
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
	if _, err := NewMobility(1, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	m, err := NewMobility(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Radius √(6/(π·10)) keeps the expected degree near 6.
	if got, want := m.Name(), "mobility(r=0.437,v=0.020)"; got != want {
		t.Fatalf("name %q, want %q", got, want)
	}
}

func TestMobilityDisseminationCompletes(t *testing.T) {
	n := 16
	assign, err := token.Gossip(n)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMobility(n, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Assign:    assign,
		Unicast:   core.NewMultiSource(),
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
