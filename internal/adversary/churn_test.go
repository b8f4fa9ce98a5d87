package adversary

import (
	"fmt"
	"math/rand"
	"testing"

	"dynspread/internal/graph"
)

// mapChurn is ChurnSeq as it was when it kept its edges' ages in a map:
// every round it lists cur's edges with AppendEdges, shuffles the list and
// probes the map per candidate. It is the reference ChurnSeq's sorted edge
// slice must agree with, draw for draw.
type mapChurn struct {
	n          int
	opts       ChurnOpts
	rng        *rand.Rand
	cur        *graph.Graph
	insertedAt map[graph.Edge]int
	edges      []graph.Edge
}

// newMapChurn builds the reference from options NewChurn already resolved.
func newMapChurn(n int, opts ChurnOpts, seed int64) *mapChurn {
	rng := rand.New(rand.NewSource(seed))
	c := &mapChurn{
		n:          n,
		opts:       opts,
		rng:        rng,
		cur:        graph.RandomConnected(n, opts.Edges, rng),
		insertedAt: make(map[graph.Edge]int),
	}
	for _, e := range c.cur.Edges() {
		c.insertedAt[e] = 1
	}
	return c
}

func (c *mapChurn) Graph(r int) *graph.Graph {
	if r <= 1 {
		return c.cur
	}
	removed := 0
	edges := c.cur.AppendEdges(c.edges[:0])
	c.edges = edges
	c.rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		if removed >= c.opts.ChurnPerRound {
			break
		}
		if r-c.insertedAt[e] < c.opts.Sigma {
			continue
		}
		if !c.cur.ConnectedWithout(e) {
			continue
		}
		c.cur.RemoveEdge(e.U, e.V)
		delete(c.insertedAt, e)
		removed++
	}
	for c.cur.M() < c.opts.Edges {
		a, b := c.rng.Intn(c.n), c.rng.Intn(c.n)
		if a == b || c.cur.HasEdge(a, b) {
			continue
		}
		c.cur.AddEdge(a, b)
		c.insertedAt[graph.NewEdge(a, b)] = r
	}
	return c.cur
}

// TestChurnSeqMatchesMapChurn serves ChurnSeq and the map-based reference
// side by side for 500 rounds: every round's graph must be equal, and
// connected by a fresh count of its components (Connected may read a
// memo). The options cover the default, a spanning tree (Edges = n-1,
// every edge a bridge), the complete graph, heavy churn at Sigma 1, and a
// long Sigma.
func TestChurnSeqMatchesMapChurn(t *testing.T) {
	for _, n := range []int{2, 3, 8, 24, 65} {
		for _, opts := range []ChurnOpts{
			{},
			{Edges: n - 1},
			{Edges: n * (n - 1) / 2},
			{Edges: 3 * n, ChurnPerRound: n, Sigma: 1},
			{ChurnPerRound: 2, Sigma: 5},
		} {
			for _, seed := range []int64{1, 2, 99} {
				t.Run(fmt.Sprintf("n=%d/%+v/seed=%d", n, opts, seed), func(t *testing.T) {
					c, err := NewChurn(n, opts, seed)
					if err != nil {
						t.Fatal(err)
					}
					ref := newMapChurn(n, c.opts, seed)
					for r := 1; r <= 500; r++ {
						got, want := c.Graph(r), ref.Graph(r)
						if !got.Equal(want) {
							t.Fatalf("round %d: served %v, reference %v", r, got.Edges(), want.Edges())
						}
						if got.Components() != 1 {
							t.Fatalf("round %d: served a graph with %d components", r, got.Components())
						}
					}
				})
			}
		}
	}
}
