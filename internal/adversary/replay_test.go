package adversary

import (
	"math/rand"
	"testing"

	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/trace"
)

func TestReplayServesRecordedSequence(t *testing.T) {
	const n, rounds = 10, 15
	rng := rand.New(rand.NewSource(3))
	seq := make([]*graph.Graph, rounds)
	tr := &trace.GraphTrace{N: n}
	var prev *graph.Graph
	for i := range seq {
		seq[i] = graph.RandomConnected(n, 2*n, rng)
		tr.Append(graph.Compute(prev, seq[i]))
		prev = seq[i]
	}

	a, err := NewReplay(tr)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rounds; r++ {
		g := a.NextGraph(&sim.View{Round: r, N: n})
		if !g.Equal(seq[r-1]) {
			t.Fatalf("round %d: replayed graph diverged from recording", r)
		}
	}
	// Past the end of the trace the last graph persists.
	for r := rounds + 1; r <= rounds+3; r++ {
		g := a.NextGraph(&sim.View{Round: r, N: n})
		if !g.Equal(seq[rounds-1]) {
			t.Fatalf("round %d: static tail diverged from last recorded graph", r)
		}
	}

	ba, err := NewReplayBroadcast(tr)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= rounds; r++ {
		g := ba.NextGraph(&sim.BroadcastView{View: sim.View{Round: r, N: n}})
		if !g.Equal(seq[r-1]) {
			t.Fatalf("round %d: broadcast replay diverged from recording", r)
		}
	}
	if a.Name() != ReplayName || ba.Name() != ReplayName {
		t.Fatalf("names: %q %q", a.Name(), ba.Name())
	}
}

func TestReplayRejectsBadTraces(t *testing.T) {
	if _, err := NewReplay(nil); err == nil {
		t.Fatal("nil trace accepted")
	}
	bad := &trace.GraphTrace{N: 4, Rounds: []trace.RoundEvents{{Del: [][2]int{{0, 1}}}}}
	if _, err := NewReplay(bad); err == nil {
		t.Fatal("inconsistent trace accepted")
	}
	if _, err := NewReplayBroadcast(&trace.GraphTrace{N: 1}); err == nil {
		t.Fatal("n=1 trace accepted")
	}
}
