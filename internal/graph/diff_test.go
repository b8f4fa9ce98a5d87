package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestComputeDiffBasic(t *testing.T) {
	a := New(4)
	a.AddEdge(0, 1)
	a.AddEdge(1, 2)
	b := New(4)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	d := Compute(a, b)
	if len(d.Inserted) != 1 || d.Inserted[0] != NewEdge(2, 3) {
		t.Fatalf("Inserted = %v", d.Inserted)
	}
	if len(d.Removed) != 1 || d.Removed[0] != NewEdge(0, 1) {
		t.Fatalf("Removed = %v", d.Removed)
	}
}

func TestComputeDiffNil(t *testing.T) {
	g := Path(4)
	d := Compute(nil, g)
	if len(d.Inserted) != 3 || len(d.Removed) != 0 {
		t.Fatalf("nil prev: %+v", d)
	}
	d2 := Compute(g, nil)
	if len(d2.Removed) != 3 || len(d2.Inserted) != 0 {
		t.Fatalf("nil next: %+v", d2)
	}
	d3 := Compute(nil, nil)
	if len(d3.Inserted)+len(d3.Removed) != 0 {
		t.Fatalf("nil both: %+v", d3)
	}
}

// Property: |E_next| = |E_prev| + |inserted| - |removed|, and applying the
// diff to prev yields next.
func TestQuickDiffRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		a := RandomConnected(n, n+rng.Intn(n), rng)
		b := RandomConnected(n, n+rng.Intn(n), rng)
		d := Compute(a, b)
		if b.M() != a.M()+len(d.Inserted)-len(d.Removed) {
			return false
		}
		c := a.Clone()
		for _, e := range d.Removed {
			if !c.RemoveEdge(e.U, e.V) {
				return false
			}
		}
		for _, e := range d.Inserted {
			if !c.AddEdge(e.U, e.V) {
				return false
			}
		}
		return c.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// observeAll feeds tr the diff of each graph against the one before it,
// starting from the empty graph G_0, as the round engine does.
func observeAll(tr *StabilityTracker, gs ...*Graph) {
	var prev *Graph
	for _, g := range gs {
		tr.Observe(Compute(prev, g))
		prev = g
	}
}

func TestStabilityTrackerStable(t *testing.T) {
	tr := NewStabilityTracker(3)
	g := Path(5)
	observeAll(tr, g, g, g, g, g, g, g, g, g, g)
	if !tr.OK() {
		t.Fatalf("static graph violated stability: %+v", tr.Violations())
	}
}

func TestStabilityTrackerViolation(t *testing.T) {
	tr := NewStabilityTracker(3)
	g1 := Path(4)
	g2 := g1.Clone()
	g2.RemoveEdge(0, 1)
	g2.AddEdge(0, 2)
	// Round 1 inserts every edge; round 2 removes {0,1} after 1 round < 3.
	observeAll(tr, g1, g2)
	if tr.OK() {
		t.Fatal("expected violation")
	}
	v := tr.Violations()[0]
	if v.E != NewEdge(0, 1) || v.InsertedAt != 1 || v.RemovedAt != 2 {
		t.Fatalf("violation = %+v", v)
	}
}

func TestStabilityTrackerExactSigma(t *testing.T) {
	// An edge present exactly σ rounds then removed is legal.
	tr := NewStabilityTracker(3)
	with := Path(3)       // has {0,1},{1,2}
	without := New(3)     // replace {0,1} by {0,2} keeping connectivity
	without.AddEdge(1, 2) //
	without.AddEdge(0, 2)
	// {0,1} lives rounds 1..3 = 3 rounds: OK at σ=3.
	observeAll(tr, with, with, with, without)
	if !tr.OK() {
		t.Fatalf("exact-σ lifetime flagged: %+v", tr.Violations())
	}
}

func TestStabilityTrackerSigmaOne(t *testing.T) {
	// Every dynamic graph is 1-edge stable.
	tr := NewStabilityTracker(1)
	rng := rand.New(rand.NewSource(2))
	gs := make([]*Graph, 20)
	for r := range gs {
		gs[r] = RandomConnected(8, 10, rng)
	}
	observeAll(tr, gs...)
	if !tr.OK() {
		t.Fatal("σ=1 should never be violated")
	}
}

func TestStabilityTrackerClampsSigma(t *testing.T) {
	tr := NewStabilityTracker(0)
	observeAll(tr, Path(3))
	if !tr.OK() {
		t.Fatal("σ clamp failed")
	}
}
