package graph

import (
	"math/rand"
	"testing"
)

// Reuse safety: graphs, diffs and generator scratch are rewritten every
// round by the dynamic adversaries and the engine, so every fill form must
// give exactly what a fresh fill gives, whatever the target held before.

// reuseSizes covers n from 2 to 40 (dense adjacency rows) plus one size
// whose rows start sparse.
func reuseSizes() []int {
	var ns []int
	for n := 2; n <= 40; n++ {
		ns = append(ns, n)
	}
	return append(ns, 600)
}

// dirtyGraph returns the complete graph over n nodes, with its flattened
// adjacency, union-find and Connectify scratch all used: every row holds
// edges a fill must clear. It never calls Reset, so the fill under test is
// the first to clear it.
func dirtyGraph(n int, seed int64) *Graph {
	g := New(n)
	Connectify(g, rand.New(rand.NewSource(seed))) // n singletons: the largest layout
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	for v := 0; v < n; v++ {
		g.NeighborsShared(v)
	}
	g.Connected()
	g.ConnectedWithout(Edge{U: 0, V: 1})
	return g
}

// sameDraws reports whether two generators have made the same number of
// draws, by comparing their next output.
func sameDraws(a, b *rand.Rand) bool { return a.Int63() == b.Int63() }

func TestIntoGeneratorsOnDirtyGraphs(t *testing.T) {
	// One scratch across every size and seed: it is dirty from larger and
	// smaller fills alike.
	var s Scratch
	for _, n := range reuseSizes() {
		for seed := int64(1); seed <= 4; seed++ {
			// d = 2 first: one Hamiltonian cycle, so from n = 4 on every
			// row differs from the complete graph's.
			for _, d := range []int{2, 6} {
				fresh := rand.New(rand.NewSource(seed))
				want := New(n)
				RandomRegularishInto(want, d, fresh, new(Scratch))
				g := dirtyGraph(n, seed)
				rng := rand.New(rand.NewSource(seed))
				RandomRegularishInto(g, d, rng, &s)
				if !g.Equal(want) || !sameDraws(rng, fresh) {
					t.Fatalf("n=%d seed=%d d=%d: RandomRegularishInto on a dirty graph differs from a fresh graph", n, seed, d)
				}
				checkCaches(t, g, want)
			}

			m := n + int(seed)*n/2
			fresh := rand.New(rand.NewSource(seed))
			want := RandomConnected(n, m, fresh)
			g := dirtyGraph(n, seed)
			rng := rand.New(rand.NewSource(seed))
			RandomConnectedInto(g, m, rng, &s)
			if !g.Equal(want) || !sameDraws(rng, fresh) {
				t.Fatalf("n=%d seed=%d: RandomConnectedInto on a dirty graph differs from RandomConnected", n, seed)
			}
			checkCaches(t, g, want)
		}
	}
}

// checkCaches compares g's memoized answers with a fresh graph's.
func checkCaches(t *testing.T, g, want *Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Connected() != want.Connected() || g.Components() != want.Components() {
		t.Fatalf("connectivity differs: %v/%d vs %v/%d", g.Connected(), g.Components(), want.Connected(), want.Components())
	}
	for v := 0; v < g.N(); v++ {
		if !equalNodes(g.NeighborsShared(v), want.Neighbors(v)) {
			t.Fatalf("NeighborsShared(%d) = %v, want %v", v, g.NeighborsShared(v), want.Neighbors(v))
		}
	}
}

func equalNodes(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// connectifyReference is Connectify as it was written with per-root member
// lists in a map and a fresh union-find: the scratch layout must make the
// same draws and pick the same endpoints.
func connectifyReference(g *Graph, rng *rand.Rand) int {
	d := g.DSU()
	if d.Components() <= 1 {
		return 0
	}
	var reps []NodeID // component roots in increasing order
	for v := 0; v < g.N(); v++ {
		if d.Find(v) == v {
			reps = append(reps, v)
		}
	}
	members := make(map[int][]NodeID, len(reps))
	for v := 0; v < g.N(); v++ {
		r := d.Find(v)
		members[r] = append(members[r], v)
	}
	added := 0
	for i := 1; i < len(reps); i++ {
		a := members[reps[0]][rng.Intn(len(members[reps[0]]))]
		b := members[reps[i]][rng.Intn(len(members[reps[i]]))]
		if g.AddEdge(a, b) {
			added++
		}
		members[reps[0]] = append(members[reps[0]], members[reps[i]]...)
	}
	return added
}

func TestConnectifyOnDirtyGraphs(t *testing.T) {
	for _, n := range reuseSizes() {
		for seed := int64(1); seed <= 4; seed++ {
			// A sparse random graph: usually several components.
			base := New(n)
			gen := rand.New(rand.NewSource(seed))
			for i := 0; i < n/2; i++ {
				base.AddEdge(gen.Intn(n), gen.Intn(n))
			}
			want := base.Clone()
			fresh := rand.New(rand.NewSource(seed))
			wantAdded := connectifyReference(want, fresh)

			g := dirtyGraph(n, seed)
			g.CopyFrom(base)
			rng := rand.New(rand.NewSource(seed))
			added := Connectify(g, rng)
			if added != wantAdded || !g.Equal(want) || !sameDraws(rng, fresh) {
				t.Fatalf("n=%d seed=%d: Connectify on a dirty graph added %d edges, reference %d (equal graphs: %v)",
					n, seed, added, wantAdded, g.Equal(want))
			}
			checkCaches(t, g, want)
		}
	}
}

func TestComputeIntoDirtyDiff(t *testing.T) {
	junk := []Edge{{U: 0, V: 1}, {U: 7, V: 9}, {U: 2, V: 3}}
	for _, n := range reuseSizes() {
		rng := rand.New(rand.NewSource(int64(n)))
		a := RandomConnected(n, n+rng.Intn(2*n), rng)
		b := RandomConnected(n, n+rng.Intn(2*n), rng)
		for _, pair := range [][2]*Graph{{a, b}, {b, a}, {nil, a}, {a, nil}, {a, a}, {nil, nil}} {
			want := Compute(pair[0], pair[1])
			d := Diff{Inserted: append([]Edge(nil), junk...), Removed: append([]Edge(nil), junk...)}
			ComputeInto(&d, pair[0], pair[1])
			if !equalEdges(d.Inserted, want.Inserted) || !equalEdges(d.Removed, want.Removed) {
				t.Fatalf("n=%d: ComputeInto into dirty slices = %v/%v, Compute = %v/%v",
					n, d.Inserted, d.Removed, want.Inserted, want.Removed)
			}
		}
	}
}

func equalEdges(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCopyFromSharesNothing: after CopyFrom, mutating either graph leaves
// the other's edges, shared neighbor rows and connectivity answer intact.
func TestCopyFromSharesNothing(t *testing.T) {
	for _, n := range []int{12, 600} {
		rng := rand.New(rand.NewSource(5))
		src := RandomConnected(n, 2*n, rng)
		dst := dirtyGraph(n, 5)
		dst.CopyFrom(src)
		if !dst.Equal(src) {
			t.Fatalf("n=%d: CopyFrom did not copy", n)
		}
		for _, tc := range []struct {
			name           string
			mutate, target *Graph
		}{{"mutate copy", dst, src}, {"mutate source", src, dst}} {
			edges := tc.target.Edges()
			rows := make([][]NodeID, n)
			for v := range rows {
				rows[v] = append([]NodeID(nil), tc.target.NeighborsShared(v)...)
			}
			if !tc.target.Connected() {
				t.Fatalf("n=%d %s: target not connected", n, tc.name)
			}
			// Isolate node 0 and add fresh edges elsewhere.
			for _, u := range tc.mutate.Neighbors(0) {
				tc.mutate.RemoveEdge(0, u)
			}
			tc.mutate.AddEdge(1, n-1)
			tc.mutate.NeighborsShared(1)
			if tc.mutate.Connected() {
				t.Fatalf("n=%d %s: isolating node 0 left the graph connected", n, tc.name)
			}
			if !equalEdges(tc.target.Edges(), edges) || !tc.target.Connected() {
				t.Fatalf("n=%d %s: the other graph changed", n, tc.name)
			}
			for v := range rows {
				if !equalNodes(tc.target.NeighborsShared(v), rows[v]) {
					t.Fatalf("n=%d %s: NeighborsShared(%d) of the other graph changed", n, tc.name, v)
				}
			}
			tc.mutate.CopyFrom(tc.target) // restore for the next case
		}
	}
}

func TestMutationsCountsEdgeSetChanges(t *testing.T) {
	g := Path(4)
	m := g.Mutations()
	g.AddEdge(0, 1)    // present already
	g.RemoveEdge(0, 3) // absent
	g.NeighborsShared(0)
	g.Connected()
	g.Components()
	g.ConnectedWithout(Edge{U: 0, V: 1})
	if g.Mutations() != m {
		t.Fatalf("no-op mutations and read queries moved the counter: %d -> %d", m, g.Mutations())
	}
	steps := []func(){
		func() { g.AddEdge(0, 3) },
		func() { g.RemoveEdge(0, 3) },
		func() { g.Reset() },
		func() { g.CopyFrom(Cycle(4)) },
	}
	for i, step := range steps {
		before := g.Mutations()
		step()
		if g.Mutations() == before {
			t.Fatalf("step %d did not move the counter", i)
		}
	}
	if !g.Equal(Cycle(4)) || !g.Connected() {
		t.Fatal("CopyFrom after Reset did not yield the cycle")
	}
}
