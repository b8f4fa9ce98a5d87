package adversary

import (
	"strings"
	"testing"

	"dynspread/internal/graph"
	"dynspread/internal/sim"
)

// drive pulls rounds of a sequence through the oblivious unicast adapter and
// applies per-round validators.
func drive(t *testing.T, seq Sequence, rounds int, check func(r int, g *graph.Graph)) {
	t.Helper()
	adv := Oblivious(seq)
	if adv.Name() == "" {
		t.Fatal("empty name")
	}
	view := &sim.View{N: 0}
	for r := 1; r <= rounds; r++ {
		view.Round = r
		g := adv.NextGraph(view)
		if g == nil {
			t.Fatalf("round %d: nil graph", r)
		}
		if !g.Connected() {
			t.Fatalf("round %d: disconnected", r)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if check != nil {
			check(r, g)
		}
	}
}

func TestStaticSeq(t *testing.T) {
	base := graph.Cycle(8)
	seq := NewStatic(base)
	drive(t, seq, 5, func(r int, g *graph.Graph) {
		if !g.Equal(base) {
			t.Fatalf("round %d: graph differs", r)
		}
	})
	// The sequence serves ONE long-lived private clone (so the engine's
	// per-graph caches make static rounds allocation-free); the source graph
	// itself is never aliased.
	g := seq.Graph(1)
	if g != seq.Graph(2) {
		t.Fatal("static sequence should serve one shared snapshot")
	}
	g.RemoveEdge(0, 1)
	if !base.HasEdge(0, 1) {
		t.Fatal("mutating the served snapshot corrupted the source graph")
	}
}

func TestChurnSeqStabilityAndConnectivity(t *testing.T) {
	seq, err := NewChurn(24, ChurnOpts{Sigma: 3}, 11)
	if err != nil {
		t.Fatal(err)
	}
	tracker := graph.NewStabilityTracker(3)
	var prev *graph.Graph
	drive(t, seq, 60, func(r int, g *graph.Graph) {
		tracker.Observe(graph.Compute(prev, g))
		prev = g
	})
	if !tracker.OK() {
		t.Fatalf("churn violated σ=3: %+v", tracker.Violations()[0])
	}
}

func TestChurnSeqActuallyChurns(t *testing.T) {
	seq, err := NewChurn(24, ChurnOpts{Sigma: 1, ChurnPerRound: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var prev *graph.Graph
	changes := 0
	drive(t, seq, 20, func(r int, g *graph.Graph) {
		if prev != nil {
			d := graph.Compute(prev, g)
			changes += len(d.Inserted) + len(d.Removed)
		}
		prev = g
	})
	if changes == 0 {
		t.Fatal("no topological changes over 20 rounds")
	}
}

func TestChurnSeqDefaultsAndErrors(t *testing.T) {
	if _, err := NewChurn(1, ChurnOpts{}, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	seq, err := NewChurn(6, ChurnOpts{Edges: 1000, ChurnPerRound: -1, Sigma: -1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := seq.Graph(1)
	if g.M() != 15 { // clamped to K_6
		t.Fatalf("edges = %d, want 15", g.M())
	}
	if !strings.Contains(seq.Name(), "churn") {
		t.Fatalf("Name = %q", seq.Name())
	}
}

func TestRewireSeq(t *testing.T) {
	seq, err := NewRewire(16, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var prev *graph.Graph
	rewired := false
	drive(t, seq, 10, func(r int, g *graph.Graph) {
		if prev != nil && !g.Equal(prev) {
			rewired = true
		}
		prev = g
	})
	if !rewired {
		t.Fatal("rewire produced identical graphs")
	}
	if _, err := NewRewire(1, 0, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestMarkovianSeq(t *testing.T) {
	seq, err := NewMarkovian(14, 0.1, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, seq, 30, nil)
	if _, err := NewMarkovian(1, 0.1, 0.1, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewMarkovian(5, -0.1, 0.1, 0); err == nil {
		t.Fatal("pOn < 0 accepted")
	}
	if _, err := NewMarkovian(5, 0.1, 1.5, 0); err == nil {
		t.Fatal("pOff > 1 accepted")
	}
}

func TestMarkovianExtremes(t *testing.T) {
	// pOn=0, pOff=1: every round the raw graph is empty and must be patched
	// into a connected one.
	seq, err := NewMarkovian(8, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, seq, 5, func(r int, g *graph.Graph) {
		if g.M() < 7 {
			t.Fatalf("round %d: %d edges < spanning", r, g.M())
		}
	})
}

func TestRegularSeq(t *testing.T) {
	seq, err := NewRegular(20, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, seq, 10, func(r int, g *graph.Graph) {
		for v := 0; v < 20; v++ {
			if g.Degree(v) < 2 {
				t.Fatalf("round %d: degree(%d) = %d", r, v, g.Degree(v))
			}
		}
	})
	if _, err := NewRegular(1, 4, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	// d < 2 is clamped rather than rejected.
	if _, err := NewRegular(8, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestObliviousBroadcastAdapter(t *testing.T) {
	seq := NewStatic(graph.Path(5))
	adv := ObliviousBroadcast(seq)
	if adv.Name() != "static" {
		t.Fatalf("Name = %q", adv.Name())
	}
	g := adv.NextGraph(&sim.BroadcastView{View: sim.View{Round: 1, N: 5}})
	if !g.Connected() || g.N() != 5 {
		t.Fatal("bad graph from broadcast adapter")
	}
}
