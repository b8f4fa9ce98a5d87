// Package graph provides the dynamic-network substrate of the simulator:
// undirected graph snapshots over a fixed node set V = {0..n-1}, connectivity
// queries, per-round edge diffs (the paper's E+_r and E-_r), σ-edge-stability
// tracking, and graph generators: random ones the adversaries draw from, and
// fixed shapes (Path, Cycle, Star, Complete) that tests build topologies
// from.
package graph

import (
	"fmt"
	"math/bits"

	"dynspread/internal/bitset"
	"dynspread/internal/bitset/adaptive"
	"dynspread/internal/unionfind"
)

// NodeID identifies a node; nodes are always 0..n-1.
type NodeID = int

// Edge is an undirected edge in canonical form (U < V).
type Edge struct {
	U, V NodeID
}

// NewEdge returns the canonical (U < V) edge between a and b.
func NewEdge(a, b NodeID) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{U: a, V: b}
}

// String renders the edge as {u,v}.
func (e Edge) String() string { return fmt.Sprintf("{%d,%d}", e.U, e.V) }

// Graph is a mutable undirected simple graph snapshot over n nodes.
// The zero value is unusable; construct with New.
//
// Adjacency is stored as one adaptive bitset row per node (plus an edge
// counter), so neighbor iteration is naturally sorted — Edges, Neighbors and
// the per-round diffs need no sort — membership is a bit probe, and
// Clone/CopyFrom are word-level copies. At experiment scale the rows sit in
// one slab allocation, which Reset and CopyFrom keep.
//
// Read accessors that are on the engine's per-round hot path
// (NeighborsShared, Connected) memoize their answer; any successful AddEdge
// or RemoveEdge, and every Reset and CopyFrom, marks the memo stale and
// bumps Mutations. The flattened adjacency is then rebuilt in its old
// storage, and every connectivity query reuses one reachability sweep's
// scratch the graph owns. The connectivity memo survives the changes that
// cannot disconnect a connected graph (AddEdge on a connected graph and
// RemoveNonBridge), and CopyFrom takes src's memo. A Graph is not safe for
// concurrent use, even read-only, because of this lazy memoization and
// scratch, and it must never be copied by value: the copy would share its
// rows, caches and scratch with the original (use Clone or CopyFrom).
//
// A graph an adversary serves for round r must keep its edges until the
// engine has diffed round r+1 against it; the adversary may rewrite it from
// its call for round r+2 on (see sim.Adversary).
type Graph struct {
	n   int
	m   int
	adj []adaptive.Set

	// mutations counts the changes to the edge set (see Mutations).
	mutations uint64

	// Lazy snapshot caches: flat is the per-node sorted adjacency
	// (subslices of flatBase), valid while flatOK; conn the memoized
	// connectivity (+1 connected, -1 disconnected, 0 stale).
	flat     [][]NodeID
	flatBase []NodeID
	flatOK   bool
	conn     int8

	// seen and stack are the reachability sweep's scratch (see sweep); dsu
	// is the union-find DSU resets and refills; comp is Connectify's
	// component-layout scratch. All are allocated on first use.
	seen  []uint64
	stack []NodeID
	dsu   *unionfind.DSU
	comp  []int
}

// invalidate marks the lazy snapshot caches stale after a mutation,
// keeping their storage for the rebuild.
func (g *Graph) invalidate() {
	g.mutations++
	g.flatOK = false
	g.conn = 0
}

// New returns an empty graph over n nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: adaptive.NewSlice(n, n)}
}

// Reset removes every edge, keeping the node count and the row storage, so
// a graph rebuilt every round stops allocating for its rows.
func (g *Graph) Reset() {
	for v := range g.adj {
		g.adj[v].Clear()
	}
	g.m = 0
	g.invalidate()
}

// CopyFrom makes g an exact copy of src's nodes and edges, reusing g's row
// storage when the node counts match, and takes src's connectivity memo.
// Afterwards g shares no storage with src.
func (g *Graph) CopyFrom(src *Graph) {
	if g.n != src.n {
		g.n = src.n
		g.adj = adaptive.NewSlice(src.n, src.n)
		g.seen, g.stack, g.dsu, g.comp = nil, nil, nil, nil
	}
	g.m = src.m
	for v := range src.adj {
		g.adj[v].CopyFrom(&src.adj[v])
	}
	g.invalidate()
	g.conn = src.conn
}

// Mutations returns how many times g's edge set has changed: every AddEdge
// or RemoveEdge that took effect, every Reset and every CopyFrom. The
// engine compares it across rounds to catch an adversary that rewrites a
// graph the engine still diffs against.
func (g *Graph) Mutations() uint64 { return g.mutations }

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the edge {a,b}. It reports whether the edge was newly
// inserted (false for self-loops, out-of-range endpoints, or existing edges).
func (g *Graph) AddEdge(a, b NodeID) bool {
	if a == b || a < 0 || b < 0 || a >= g.n || b >= g.n {
		return false
	}
	if !g.adj[a].Insert(b) {
		return false
	}
	g.adj[b].Insert(a)
	g.m++
	conn := g.conn
	g.invalidate()
	if conn == 1 {
		g.conn = 1 // an added edge cannot disconnect
	}
	return true
}

// RemoveEdge deletes the edge {a,b}, reporting whether it existed.
func (g *Graph) RemoveEdge(a, b NodeID) bool {
	if a == b || a < 0 || b < 0 || a >= g.n || b >= g.n {
		return false
	}
	if !g.adj[a].Delete(b) {
		return false
	}
	g.adj[b].Delete(a)
	g.m--
	g.invalidate()
	return true
}

// HasEdge reports whether {a,b} is present.
func (g *Graph) HasEdge(a, b NodeID) bool {
	if a < 0 || b < 0 || a >= g.n || b >= g.n {
		return false
	}
	return g.adj[a].Contains(b)
}

// Neighbors returns v's neighbors in increasing order. The slice is owned by
// the caller.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	if v < 0 || v >= g.n {
		return nil
	}
	out := make([]NodeID, 0, g.adj[v].Count())
	g.adj[v].ForEach(func(u int) { out = append(out, u) })
	return out
}

// NeighborsShared returns v's neighbors in increasing order as a slice
// SHARED with the graph: callers must treat it as read-only and must not
// retain it past the next mutation of g. The full adjacency is flattened
// into one backing array on first use and memoized until the graph changes,
// so a graph served for many rounds (e.g. the static adversary's) costs
// zero allocations per round on the engine's hot path; the rebuild after a
// change reuses that array. Use Neighbors for a caller-owned copy.
func (g *Graph) NeighborsShared(v NodeID) []NodeID {
	if v < 0 || v >= g.n {
		return nil
	}
	if !g.flatOK {
		g.buildFlat()
	}
	return g.flat[v]
}

// buildFlat flattens the adjacency rows into sorted per-node subslices of a
// single backing array, reusing the previous flattening's storage. Rows
// iterate in increasing order, so no sort is needed.
func (g *Graph) buildFlat() {
	total := 2 * g.m
	base := g.flatBase[:0]
	if cap(base) < total {
		// Headroom (up to the complete graph's 2·n(n-1)/2 entries), so a
		// graph rebuilt every round whose edge count wanders (markovian,
		// regular) stops regrowing after its first rounds.
		base = make([]NodeID, 0, min(2*total, g.n*(g.n-1)))
	}
	flat := g.flat
	if cap(flat) < g.n {
		flat = make([][]NodeID, g.n)
	}
	flat = flat[:g.n]
	for v := 0; v < g.n; v++ {
		start := len(base)
		g.adj[v].ForEach(func(u int) { base = append(base, u) })
		flat[v] = base[start:len(base):len(base)]
	}
	g.flatBase = base
	g.flat = flat
	g.flatOK = true
}

// Edges returns all edges in canonical sorted order (by U, then V).
func (g *Graph) Edges() []Edge { return g.AppendEdges(make([]Edge, 0, g.m)) }

// AppendEdges appends all edges in canonical sorted order (by U, then V) to
// dst and returns the extended slice. Rows are walked above the diagonal,
// which yields exactly that order with no sort.
func (g *Graph) AppendEdges(dst []Edge) []Edge {
	for v := 0; v < g.n; v++ {
		g.adj[v].ForEachFrom(v+1, func(u int) {
			dst = append(dst, Edge{U: v, V: u})
		})
	}
	return dst
}

// EdgeAt returns the i-th edge (0-based) of the canonical sorted order —
// Edges()[i] without materializing the slice. Adversaries drawing one random
// edge per round (rng.Intn(M()) then EdgeAt) stay allocation-free while
// making exactly the draws the Edges()-indexing formulation made.
func (g *Graph) EdgeAt(i int) (Edge, bool) {
	if i < 0 || i >= g.m {
		return Edge{}, false
	}
	rem := i
	var out Edge
	found := false
	for v := 0; v < g.n && !found; v++ {
		g.adj[v].ScanFrom(v+1, func(u int) bool {
			if rem == 0 {
				out = Edge{U: v, V: u}
				found = true
				return false
			}
			rem--
			return true
		})
	}
	return out, found
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.CopyFrom(g)
	return c
}

// Equal reports whether g and o have the same node count and edge set.
func (g *Graph) Equal(o *Graph) bool {
	if g.n != o.n || g.m != o.m {
		return false
	}
	for v := range g.adj {
		if !g.adj[v].Equal(&o.adj[v]) {
			return false
		}
	}
	return true
}

// forEachEdge visits every edge in canonical sorted order without
// allocating.
func (g *Graph) forEachEdge(fn func(u, v NodeID)) {
	for v := 0; v < g.n; v++ {
		g.adj[v].ForEachFrom(v+1, func(u int) { fn(v, u) })
	}
}

// DSU returns g's union-find with g's edges applied in canonical sorted
// order, so the root Find names for each component is deterministic:
// Connectify's draws and the mobility adversary's repair edges depend on
// it. The union-find belongs to g: every DSU call, Connectify's included,
// resets and refills it, so a caller may read it, and Union into it, only
// until the next such call. Connected, ConnectedWithout and Components do
// not touch it.
func (g *Graph) DSU() *unionfind.DSU {
	if g.dsu == nil {
		g.dsu = unionfind.New(g.n)
	} else {
		g.dsu.Reset()
	}
	d := g.dsu
	g.forEachEdge(func(u, v NodeID) { d.Union(u, v) })
	return d
}

// Connected reports whether the graph is connected (true for n <= 1). The
// answer is memoized (see Graph), so the engine's once-per-round validation
// is free for a long-lived graph after its first round, and for the copy of
// a graph an adversary keeps connected through AddEdge and RemoveNonBridge.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	if g.conn == 0 {
		g.resetSweep()
		if g.sweep(0, noEdge, -1) == g.n {
			g.conn = 1
		} else {
			g.conn = -1
		}
	}
	return g.conn == 1
}

// Components returns the number of connected components: one sweep per
// component, each from the lowest node no earlier sweep reached.
func (g *Graph) Components() int {
	g.resetSweep()
	comps := 0
	for v := 0; v < g.n; v++ {
		if g.seen[v>>6]&(1<<(v&63)) == 0 {
			g.sweep(v, noEdge, -1)
			comps++
		}
	}
	return comps
}

// ConnectedWithout reports whether the graph stays connected after removing
// edge e. An e that is not an edge of g (absent, out of range, or not in
// canonical U < V form) removes nothing: the answer is then Connected's.
// On a graph known to be connected the answer is whether e.V is reachable
// from e.U without e, and the sweep stops as soon as it reaches e.V; a
// full sweep that reaches every node records that g is connected.
func (g *Graph) ConnectedWithout(e Edge) bool {
	if g.n <= 1 {
		return true
	}
	if e.U >= e.V || !g.HasEdge(e.U, e.V) {
		return g.Connected()
	}
	g.resetSweep()
	if g.conn == 1 {
		g.sweep(e.U, e, e.V)
		return g.seen[e.V>>6]&(1<<(e.V&63)) != 0
	}
	if g.sweep(0, e, -1) < g.n {
		return false
	}
	g.conn = 1
	return true
}

// RemoveNonBridge removes edge e when the graph stays connected without it,
// reporting whether it did: it is ConnectedWithout(e) followed by
// RemoveEdge, except that g is then known to be connected, so a later
// Connected (or CopyFrom of g) reads the memo instead of sweeping. An e
// that is not an edge of g, in canonical U < V form, is not removed.
func (g *Graph) RemoveNonBridge(e Edge) bool {
	if e.U >= e.V || !g.ConnectedWithout(e) || !g.RemoveEdge(e.U, e.V) {
		return false
	}
	g.conn = 1
	return true
}

// noEdge is the sweep's skip argument when it skips no edge: no node
// matches either endpoint.
var noEdge = Edge{U: -1, V: -1}

// resetSweep clears the sweep's seen set, allocating it and the stack on
// first use.
func (g *Graph) resetSweep() {
	if g.seen == nil {
		g.seen = make([]uint64, bitset.WordsFor(g.n))
		g.stack = make([]NodeID, g.n)
		return
	}
	clear(g.seen)
}

// sweep marks in g.seen every node reachable from src, which must be
// unmarked, without crossing edge skip, and returns how many nodes it
// marked. A dense row is read a 64-bit word at a time: row &^ seen is the
// word's unreached neighbours, all marked and pushed at once, so a node is
// pushed at most once and the stack never holds more than n nodes. A
// sparse row (only at n > 512) is walked neighbour by neighbour through the
// inlined ForEach. skip is left out by marking its far end seen while its
// near end's row is read. The sweep stops as soon as every node is marked,
// or once node stop is (stop < 0: never).
func (g *Graph) sweep(src NodeID, skip Edge, stop NodeID) int {
	seen, stack := g.seen, g.stack
	stopWord, stopBit := 0, uint64(0) // stopBit 0 never matches
	if stop >= 0 {
		stopWord, stopBit = stop>>6, 1<<(stop&63)
	}
	seen[src>>6] |= 1 << (src & 63)
	stack[0] = src
	top, count := 1, 1
	for top > 0 && count < g.n && seen[stopWord]&stopBit == 0 {
		top--
		v := stack[top]
		hide := -1
		if v == skip.U {
			hide = skip.V
		} else if v == skip.V {
			hide = skip.U
		}
		if hide >= 0 {
			if seen[hide>>6]&(1<<(hide&63)) != 0 {
				hide = -1 // already reached: nothing to hide
			} else {
				seen[hide>>6] |= 1 << (hide & 63)
			}
		}
		row := &g.adj[v]
		if words := row.DenseWords(); words != nil {
			for i, w := range words {
				w &^= seen[i]
				if w == 0 {
					continue
				}
				seen[i] |= w
				count += bits.OnesCount64(w)
				for ; w != 0; w &= w - 1 {
					stack[top] = i<<6 | bits.TrailingZeros64(w)
					top++
				}
			}
		} else {
			row.ForEach(func(u int) {
				if seen[u>>6]&(1<<(u&63)) == 0 {
					seen[u>>6] |= 1 << (u & 63)
					stack[top] = u
					top++
					count++
				}
			})
		}
		if hide >= 0 {
			seen[hide>>6] &^= 1 << (hide & 63)
		}
	}
	return count
}

// Validate returns an error if internal adjacency invariants are violated.
// No simulation path calls it: it is the invariant oracle of the graph,
// adversary and trace tests.
func (g *Graph) Validate() error {
	count := 0
	var err error
	for v := range g.adj {
		if g.adj[v].Len() != g.n {
			return fmt.Errorf("graph: row %d has universe %d, want %d", v, g.adj[v].Len(), g.n)
		}
		g.adj[v].ForEach(func(u int) {
			if err != nil {
				return
			}
			if u == v {
				err = fmt.Errorf("graph: self-loop at %d", v)
				return
			}
			if !g.adj[u].Contains(v) {
				err = fmt.Errorf("graph: adjacency %d-%d not symmetric", v, u)
				return
			}
			count++
		})
		if err != nil {
			return err
		}
	}
	if count != 2*g.m {
		return fmt.Errorf("graph: adjacency count %d != 2*edges %d", count, 2*g.m)
	}
	return nil
}
