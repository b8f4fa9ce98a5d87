package adversary

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"dynspread/internal/graph"
)

// StaticSeq serves the same fixed connected graph every round.
type StaticSeq struct {
	G *graph.Graph
	// served is the snapshot handed to the engine: one private clone of G,
	// created on first use and then served every round. Serving one
	// long-lived object (instead of a fresh clone per round) lets the
	// engine's graph caches and diff fast path make static rounds
	// allocation-free; it is safe because the engine treats round graphs as
	// read-only.
	served *graph.Graph
}

// NewStatic returns a static sequence serving g.
func NewStatic(g *graph.Graph) *StaticSeq { return &StaticSeq{G: g} }

// Name implements Sequence.
func (s *StaticSeq) Name() string { return "static" }

// Graph implements Sequence.
func (s *StaticSeq) Graph(int) *graph.Graph {
	if s.served == nil {
		s.served = s.G.Clone()
	}
	return s.served
}

// ChurnOpts parameterizes the σ-edge-stable churn sequence.
type ChurnOpts struct {
	// Edges is the target edge count of the evolving graph (min n-1;
	// default 2n).
	Edges int
	// ChurnPerRound is the number of edge removals (and matching additions)
	// attempted each round (default max(1, n/8)).
	ChurnPerRound int
	// Sigma is the guaranteed edge stability: no edge is removed before it
	// existed for Sigma consecutive rounds (default 3, matching the
	// assumption of Theorems 3.4/3.6).
	Sigma int
}

// ChurnSeq evolves a random connected graph by removing aged edges (only
// when removal keeps the graph connected) and inserting fresh random edges.
// The produced sequence is always connected and Sigma-edge-stable.
type ChurnSeq struct {
	name string
	n    int
	opts ChurnOpts
	rng  *rand.Rand
	cur  *graph.Graph
	// live is cur's edges in canonical order, each with the round it was
	// inserted in, updated by binary search as edges come and go; order is
	// the scratch copy of it shuffled each round.
	live   []agedEdge
	order  []agedEdge
	served pair
}

// agedEdge is an edge of a churn graph and the round it was inserted in.
type agedEdge struct {
	e  graph.Edge
	at int
}

// NewChurn returns a churn sequence over n nodes.
func NewChurn(n int, opts ChurnOpts, seed int64) (*ChurnSeq, error) {
	if n < 2 {
		return nil, fmt.Errorf("adversary: churn needs n >= 2, got %d", n)
	}
	if opts.Edges <= 0 {
		opts.Edges = 2 * n
	}
	if opts.Edges < n-1 {
		opts.Edges = n - 1
	}
	if maxM := n * (n - 1) / 2; opts.Edges > maxM {
		opts.Edges = maxM
	}
	if opts.ChurnPerRound <= 0 {
		opts.ChurnPerRound = n / 8
		if opts.ChurnPerRound < 1 {
			opts.ChurnPerRound = 1
		}
	}
	if opts.Sigma <= 0 {
		opts.Sigma = 3
	}
	rng := rand.New(rand.NewSource(seed))
	c := &ChurnSeq{
		name:  fmt.Sprintf("churn(m=%d,c=%d,sigma=%d)", opts.Edges, opts.ChurnPerRound, opts.Sigma),
		n:     n,
		opts:  opts,
		rng:   rng,
		cur:   graph.RandomConnected(n, opts.Edges, rng),
		live:  make([]agedEdge, 0, opts.Edges),
		order: make([]agedEdge, 0, opts.Edges),
	}
	for _, e := range c.cur.Edges() {
		c.live = append(c.live, agedEdge{e: e, at: 1})
	}
	return c, nil
}

// Name implements Sequence.
func (c *ChurnSeq) Name() string { return c.name }

// Graph implements Sequence. Rounds must be requested in increasing order.
func (c *ChurnSeq) Graph(r int) *graph.Graph {
	if r <= 1 {
		return c.served.copyOf(c.cur)
	}
	// Remove up to ChurnPerRound aged, non-bridge edges, in a random order.
	removed := 0
	order := append(c.order[:0], c.live...)
	c.order = order
	c.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, x := range order {
		if removed >= c.opts.ChurnPerRound {
			break
		}
		if r-x.at < c.opts.Sigma {
			continue // too young: σ-stability
		}
		if !c.cur.RemoveNonBridge(x.e) {
			continue
		}
		i := c.find(x.e)
		c.live = slices.Delete(c.live, i, i+1)
		removed++
	}
	// Insert fresh random edges back up to the target count.
	for c.cur.M() < c.opts.Edges {
		a, b := c.rng.Intn(c.n), c.rng.Intn(c.n)
		if !c.cur.AddEdge(a, b) {
			continue // a self-loop or an edge already present
		}
		e := graph.NewEdge(a, b)
		c.live = slices.Insert(c.live, c.find(e), agedEdge{e: e, at: r})
	}
	return c.served.copyOf(c.cur)
}

// find returns e's position in live, or the position it would take.
func (c *ChurnSeq) find(e graph.Edge) int {
	i, _ := slices.BinarySearchFunc(c.live, e, func(x agedEdge, e graph.Edge) int {
		return cmp.Or(cmp.Compare(x.e.U, e.U), cmp.Compare(x.e.V, e.V))
	})
	return i
}

// RewireSeq serves a fresh random connected graph every round — maximal
// topological churn (only 1-edge stable), the worst case for TC-charged
// accounting.
type RewireSeq struct {
	n, m    int
	rng     *rand.Rand
	served  pair
	scratch graph.Scratch
}

// NewRewire returns a rewire sequence over n nodes with about m edges per
// round (default 2n when m <= 0).
func NewRewire(n, m int, seed int64) (*RewireSeq, error) {
	if n < 2 {
		return nil, fmt.Errorf("adversary: rewire needs n >= 2, got %d", n)
	}
	if m <= 0 {
		m = 2 * n
	}
	return &RewireSeq{n: n, m: m, rng: rand.New(rand.NewSource(seed))}, nil
}

// Name implements Sequence.
func (s *RewireSeq) Name() string { return fmt.Sprintf("rewire(m=%d)", s.m) }

// Graph implements Sequence.
func (s *RewireSeq) Graph(int) *graph.Graph {
	g := s.served.next(s.n)
	graph.RandomConnectedInto(g, s.m, s.rng, &s.scratch)
	return g
}

// MarkovianSeq is the classic edge-Markovian evolving graph: every potential
// edge turns on with probability POn when absent and turns off with
// probability POff when present, independently per round; connectivity is
// patched with extra random edges when needed.
type MarkovianSeq struct {
	n         int
	pOn, pOff float64
	rng       *rand.Rand
	cur       *graph.Graph // the graph served last round
	served    pair
}

// NewMarkovian returns an edge-Markovian sequence (0 <= pOn, pOff <= 1).
func NewMarkovian(n int, pOn, pOff float64, seed int64) (*MarkovianSeq, error) {
	if n < 2 {
		return nil, fmt.Errorf("adversary: markovian needs n >= 2, got %d", n)
	}
	if pOn < 0 || pOn > 1 || pOff < 0 || pOff > 1 {
		return nil, fmt.Errorf("adversary: markovian probabilities out of [0,1]: pOn=%g pOff=%g", pOn, pOff)
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MarkovianSeq{n: n, pOn: pOn, pOff: pOff, rng: rng, cur: graph.New(n)}
	return m, nil
}

// Name implements Sequence.
func (m *MarkovianSeq) Name() string {
	return fmt.Sprintf("markovian(on=%.3f,off=%.3f)", m.pOn, m.pOff)
}

// Graph implements Sequence.
func (m *MarkovianSeq) Graph(int) *graph.Graph {
	// cur is the pair graph served last round (the empty graph before round
	// 1), so next — the other one — is free to overwrite.
	next := m.served.next(m.n)
	next.Reset()
	for u := 0; u < m.n; u++ {
		for v := u + 1; v < m.n; v++ {
			on := m.cur.HasEdge(u, v)
			if on {
				if m.rng.Float64() >= m.pOff {
					next.AddEdge(u, v)
				}
			} else {
				if m.rng.Float64() < m.pOn {
					next.AddEdge(u, v)
				}
			}
		}
	}
	graph.Connectify(next, m.rng)
	m.cur = next
	return next
}

// RegularSeq serves a fresh random near-d-regular connected graph every
// round — the oblivious substrate of the random-walk experiments
// (Lemma 3.7) and of Algorithm 2's phase 1.
type RegularSeq struct {
	n, d    int
	rng     *rand.Rand
	served  pair
	scratch graph.Scratch
}

// NewRegular returns a d-regular-ish oblivious sequence.
func NewRegular(n, d int, seed int64) (*RegularSeq, error) {
	if n < 2 {
		return nil, fmt.Errorf("adversary: regular needs n >= 2, got %d", n)
	}
	if d < 2 {
		d = 2
	}
	return &RegularSeq{n: n, d: d, rng: rand.New(rand.NewSource(seed))}, nil
}

// Name implements Sequence.
func (s *RegularSeq) Name() string { return fmt.Sprintf("regular(d=%d)", s.d) }

// Graph implements Sequence.
func (s *RegularSeq) Graph(int) *graph.Graph {
	g := s.served.next(s.n)
	graph.RandomRegularishInto(g, s.d, s.rng, &s.scratch)
	return g
}
