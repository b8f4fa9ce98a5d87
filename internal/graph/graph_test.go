package graph

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// TestNewLargeNMemory: an empty graph costs O(n) memory, not O(n²). Traces
// and wire specs accept n up to 2²⁰, where adjacency rows pre-sized to their
// promotion threshold of 4·⌈n/64⌉ entries would take about 256 GB.
func TestNewLargeNMemory(t *testing.T) {
	const n = 1 << 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := New(n)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 32<<20 {
		t.Fatalf("New(%d) allocated %d bytes, want under 32 MB", n, got)
	}
	g.AddEdge(0, n-1)
	if !g.HasEdge(n-1, 0) || g.M() != 1 || g.Clone().adj[0].Count() != 1 {
		t.Fatal("edge lost on a large graph")
	}
}

func TestNewEdgeCanonical(t *testing.T) {
	e := NewEdge(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Fatalf("NewEdge(5,2) = %v", e)
	}
	if NewEdge(2, 5) != e {
		t.Fatal("canonical edges not equal")
	}
	if e.String() != "{2,5}" {
		t.Fatalf("String = %q", e.String())
	}
}

func TestAddRemoveHasEdge(t *testing.T) {
	g := New(5)
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge returned false")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("duplicate AddEdge returned true")
	}
	if g.AddEdge(2, 2) {
		t.Fatal("self-loop added")
	}
	if g.AddEdge(0, 5) || g.AddEdge(-1, 0) {
		t.Fatal("out-of-range edge added")
	}
	if !g.HasEdge(1, 0) {
		t.Fatal("HasEdge(1,0) false")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d", g.M())
	}
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge returned false")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("double RemoveEdge returned true")
	}
	if g.M() != 0 || g.HasEdge(0, 1) {
		t.Fatal("edge not removed")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeNeighbors(t *testing.T) {
	g := New(6)
	g.AddEdge(3, 0)
	g.AddEdge(3, 5)
	g.AddEdge(3, 1)
	nbrs := g.Neighbors(3)
	want := []int{0, 1, 5}
	if len(nbrs) != 3 {
		t.Fatalf("Neighbors = %v", nbrs)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", nbrs, want)
		}
	}
	if g.Neighbors(-1) != nil || g.Neighbors(10) != nil {
		t.Fatal("out-of-range neighbors non-nil")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(5)
	g.AddEdge(4, 3)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	es := g.Edges()
	want := []Edge{{0, 1}, {0, 2}, {3, 4}}
	if len(es) != len(want) {
		t.Fatalf("Edges = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", es, want)
		}
	}
}

func TestCloneEqual(t *testing.T) {
	g := RandomConnected(20, 40, rand.New(rand.NewSource(1)))
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.AddEdge(0, 19)
	c.RemoveEdge(0, 19)
	// Mutate clone; original must be unaffected.
	es := c.Edges()
	c.RemoveEdge(es[0].U, es[0].V)
	if g.Equal(c) {
		t.Fatal("clone aliases original")
	}
}

func TestConnectivity(t *testing.T) {
	g := New(4)
	if g.Connected() {
		t.Fatal("empty 4-node graph connected")
	}
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.Components() != 2 {
		t.Fatalf("Components = %d", g.Components())
	}
	g.AddEdge(1, 2)
	if !g.Connected() {
		t.Fatal("path not connected")
	}
	if !g.ConnectedWithout(NewEdge(0, 5)) {
		t.Fatal("ConnectedWithout nonexistent edge")
	}
	if g.ConnectedWithout(NewEdge(1, 2)) {
		t.Fatal("bridge removal should disconnect")
	}
	g.AddEdge(0, 3)
	if !g.ConnectedWithout(NewEdge(1, 2)) {
		t.Fatal("cycle should survive removal")
	}
}

func TestTrivialConnected(t *testing.T) {
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("n<=1 should be connected")
	}
}

func TestGenerators(t *testing.T) {
	tree := New(10)
	RandomTreeInto(tree, rand.New(rand.NewSource(7)), new(Scratch))
	cases := []struct {
		name  string
		g     *Graph
		wantM int
	}{
		{"path", Path(10), 9},
		{"cycle", Cycle(10), 10},
		{"star", Star(10), 9},
		{"complete", Complete(10), 45},
		{"tree", tree, 9},
	}
	for _, c := range cases {
		if c.g.M() != c.wantM {
			t.Errorf("%s: M = %d, want %d", c.name, c.g.M(), c.wantM)
		}
		if !c.g.Connected() {
			t.Errorf("%s: not connected", c.name)
		}
		if err := c.g.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestCycleSmall(t *testing.T) {
	if Cycle(2).M() != 1 {
		t.Fatal("Cycle(2) should be a single edge")
	}
	if Cycle(1).M() != 0 {
		t.Fatal("Cycle(1) should be empty")
	}
}

func TestRandomTreeProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz)%60 + 1
		g := New(n)
		RandomTreeInto(g, rand.New(rand.NewSource(seed)), new(Scratch))
		wantM := n - 1
		if n == 1 {
			wantM = 0
		}
		return g.M() == wantM && g.Connected() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomConnectedProperty(t *testing.T) {
	f := func(seed int64, sz, extra uint8) bool {
		n := int(sz)%50 + 2
		m := n - 1 + int(extra)
		g := RandomConnected(n, m, rand.New(rand.NewSource(seed)))
		maxM := n * (n - 1) / 2
		wantM := m
		if wantM > maxM {
			wantM = maxM
		}
		if wantM < n-1 {
			wantM = n - 1
		}
		return g.Connected() && g.M() >= n-1 && g.M() <= maxM && g.M() >= wantM && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomRegularish(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{2, 4, 8} {
		g := New(100)
		RandomRegularishInto(g, d, rng, new(Scratch))
		if !g.Connected() {
			t.Fatalf("d=%d: not connected", d)
		}
		minDeg := 100
		for v := 0; v < 100; v++ {
			if deg := g.adj[v].Count(); deg < minDeg {
				minDeg = deg
			}
		}
		if minDeg < 2 {
			t.Fatalf("d=%d: min degree %d < 2", d, minDeg)
		}
	}
	// Degenerate sizes must not panic.
	for _, n := range []int{1, 2, 5} {
		RandomRegularishInto(New(n), 100, rng, new(Scratch))
	}
}

func TestConnectify(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := New(10)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(4, 5)
	added := Connectify(g, rng)
	if !g.Connected() {
		t.Fatal("not connected after Connectify")
	}
	if added == 0 {
		t.Fatal("no edges reported added")
	}
	// Already connected: no-op.
	before := g.M()
	if got := Connectify(g, rng); got != 0 {
		t.Fatalf("Connectify on connected graph added %d edges", got)
	}
	if g.M() != before {
		t.Fatal("edge count changed")
	}
}
