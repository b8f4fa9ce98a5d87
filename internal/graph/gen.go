package graph

import "math/rand"

// Path returns the path 0-1-2-...-(n-1).
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Cycle returns the n-cycle (a path for n < 3).
func Cycle(n int) *Graph {
	g := Path(n)
	if n >= 3 {
		g.AddEdge(n-1, 0)
	}
	return g
}

// Star returns a star with center 0.
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// Scratch holds the reusable buffers of the Into generators, so a caller
// that draws a graph every round allocates them once. The zero value is
// ready to use; a Scratch serves one generator call at a time.
type Scratch struct {
	ints []int
}

// intsFor returns s's buffer at length n, contents unspecified.
func (s *Scratch) intsFor(n int) []int {
	if cap(s.ints) < n {
		s.ints = make([]int, n)
	}
	return s.ints[:n]
}

// RandomTreeInto overwrites g with a uniformly random labeled tree on its
// g.N() nodes, generated by decoding a random Prüfer sequence.
func RandomTreeInto(g *Graph, rng *rand.Rand, s *Scratch) {
	g.Reset()
	n := g.N()
	if n <= 1 {
		return
	}
	if n == 2 {
		g.AddEdge(0, 1)
		return
	}
	buf := s.intsFor(2*n - 2)
	prufer, degree := buf[:n-2], buf[n-2:]
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	for i := range degree {
		degree[i] = 1
	}
	for _, p := range prufer {
		degree[p]++
	}
	// Decode: repeatedly attach the smallest leaf to the next Prüfer entry.
	// An attached leaf's degree drops to 0, which marks it used: it has no
	// Prüfer entries left, so its degree never changes again. Using a
	// simple scan keeps this O(n^2) worst case but n is small here.
	for _, p := range prufer {
		for leaf := 0; leaf < n; leaf++ {
			if degree[leaf] == 1 {
				g.AddEdge(leaf, p)
				degree[leaf] = 0
				degree[p]--
				break
			}
		}
	}
	// Connect the last two remaining nodes of degree 1.
	first := -1
	for v := 0; v < n; v++ {
		if degree[v] != 1 {
			continue
		}
		if first >= 0 {
			g.AddEdge(first, v)
			return
		}
		first = v
	}
}

// RandomConnected returns a connected graph on n nodes with approximately m
// edges (at least n-1): a random spanning tree plus random extra edges. If m
// exceeds the number of possible edges it is clamped.
func RandomConnected(n, m int, rng *rand.Rand) *Graph {
	g := New(n)
	RandomConnectedInto(g, m, rng, new(Scratch))
	return g
}

// RandomConnectedInto overwrites g with a RandomConnected graph on its
// g.N() nodes, making exactly the draws RandomConnected makes.
func RandomConnectedInto(g *Graph, m int, rng *rand.Rand, s *Scratch) {
	RandomTreeInto(g, rng, s)
	n := g.N()
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	for g.M() < m {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddEdge(a, b)
		}
	}
}

// RandomRegularishInto overwrites g with a connected graph on its g.N()
// nodes where every node has degree at least d and close to d on average,
// built as the union of ceil(d/2) random Hamiltonian cycles (a standard
// construction for near-regular expanders). The result is simple (duplicate
// edges merge), so degrees may be slightly below 2*ceil(d/2) at small n;
// connectivity is guaranteed by the first cycle. d is clamped to [2, n-1].
func RandomRegularishInto(g *Graph, d int, rng *rand.Rand, s *Scratch) {
	g.Reset()
	n := g.N()
	if n <= 1 {
		return
	}
	if d < 2 {
		d = 2
	}
	if d > n-1 {
		d = n - 1
	}
	cycles := (d + 1) / 2
	perm := s.intsFor(n)
	for c := 0; c < cycles; c++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := 0; i < n; i++ {
			g.AddEdge(perm[i], perm[(i+1)%n])
		}
	}
}

// Connectify adds random edges between components until g is connected,
// returning how many it added. Used by generators that may produce
// disconnected graphs (e.g. edge-Markovian evolution). It joins component i
// (components in increasing root order) to a random member of components
// 0..i-1, each endpoint drawn uniformly in increasing node order. Its
// scratch belongs to g, so it allocates only on g's first call.
func Connectify(g *Graph, rng *rand.Rand) int {
	d := g.DSU()
	comps := d.Components()
	if comps <= 1 {
		return 0
	}
	n := g.n
	if g.comp == nil {
		g.comp = make([]int, 4*n+1) // comps <= n
	}
	// compOf[v] is v's component index, components numbered in increasing
	// root order; component i fills members[start[i]:start[i+1]] in
	// increasing node order.
	buf := g.comp
	compOf, members := buf[:n], buf[n:2*n]
	start, next := buf[2*n:2*n+comps+1], buf[2*n+comps+1:2*n+2*comps+1]
	c := 0
	for v := 0; v < n; v++ {
		if d.Find(v) == v {
			compOf[v] = c
			c++
		}
	}
	clear(start)
	for v := 0; v < n; v++ {
		compOf[v] = compOf[d.Find(v)]
		start[compOf[v]+1]++
	}
	for i := 1; i <= comps; i++ {
		start[i] += start[i-1]
	}
	copy(next, start)
	for v := 0; v < n; v++ {
		members[next[compOf[v]]] = v
		next[compOf[v]]++
	}
	added := 0
	for i := 1; i < comps; i++ {
		// Components 0..i-1 are already joined: they fill members[:start[i]].
		a := members[rng.Intn(start[i])]
		b := members[start[i]+rng.Intn(start[i+1]-start[i])]
		if g.AddEdge(a, b) {
			added++
		}
	}
	return added
}
