// Package unionfind implements a disjoint-set union (DSU) structure with path
// compression and union by size. The simulator uses it where the identity
// of a component's root matters: Graph.DSU, whose roots fix which nodes
// graph.Connectify and the mobility adversary join, and the "free-edge"
// graphs of the Section 2 lower-bound adversary. Round-graph connectivity
// questions (Graph.Connected, ConnectedWithout, Components) are answered
// by a reachability sweep instead.
package unionfind

// DSU is a disjoint-set union over elements 0..n-1.
type DSU struct {
	parent []int
	size   []int
	comps  int
}

// New returns a DSU with n singleton components.
func New(n int) *DSU {
	if n < 0 {
		n = 0
	}
	d := &DSU{
		parent: make([]int, n),
		size:   make([]int, n),
		comps:  n,
	}
	for i := range d.parent {
		d.parent[i] = i
		d.size[i] = 1
	}
	return d
}

// Len returns the number of elements.
func (d *DSU) Len() int { return len(d.parent) }

// Find returns the canonical representative of x's component.
func (d *DSU) Find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]] // path halving
		x = d.parent[x]
	}
	return x
}

// Union merges the components of a and b and reports whether a merge
// happened (false if they were already connected).
func (d *DSU) Union(a, b int) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	d.comps--
	return true
}

// Components returns the current number of components.
func (d *DSU) Components() int { return d.comps }

// Reset returns the DSU to n singleton components without reallocating.
func (d *DSU) Reset() {
	for i := range d.parent {
		d.parent[i] = i
		d.size[i] = 1
	}
	d.comps = len(d.parent)
}
