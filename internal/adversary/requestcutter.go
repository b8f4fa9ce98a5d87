package adversary

import (
	"fmt"
	"math/rand"

	"dynspread/internal/graph"
	"dynspread/internal/sim"
)

// RequestCutter is the strongly adaptive unicast adversary used to stress
// the 1-adversary-competitive bound of Theorems 3.1/3.5: it watches which
// edges carried token requests in the previous round (visible to a strongly
// adaptive adversary) and cuts each of them with probability CutProb before
// the response can cross, forcing the requester to spend another request
// message. Every such cut is one edge removal plus one replacement insertion
// — a topological change the adversary is charged for under Definition 1.3,
// which is exactly how the paper's accounting absorbs the wasted requests.
//
// On top of the targeted cuts it applies light background churn (one random
// non-bridge edge swapped per round) so the topology keeps mixing even in
// request-free rounds. The graph always stays connected. With CutProb < 1
// executions terminate with probability 1.
type RequestCutter struct {
	name    string
	n       int
	cutProb float64
	rng     *rand.Rand
	cur     *graph.Graph
	served  pair

	// Scratch for collecting last round's request-carrying edges.
	seen map[graph.Edge]bool
	hot  []graph.Edge

	cuts int64
}

// NewRequestCutter builds the adversary over n nodes, on an evolving graph
// of 2n edges (all n(n−1)/2 pairs when n <= 4). cutProb in [0,1) is the
// per-hot-edge cut probability (default 0.6 when <= 0).
func NewRequestCutter(n int, cutProb float64, seed int64) (*RequestCutter, error) {
	if n < 2 {
		return nil, fmt.Errorf("adversary: request cutter needs n >= 2, got %d", n)
	}
	if cutProb <= 0 {
		cutProb = 0.6
	}
	if cutProb >= 1 {
		return nil, fmt.Errorf("adversary: cutProb must be < 1 for termination, got %g", cutProb)
	}
	baseEdges := min(2*n, n*(n-1)/2)
	rng := rand.New(rand.NewSource(seed))
	return &RequestCutter{
		name:    fmt.Sprintf("request-cutter(p=%.2f)", cutProb),
		n:       n,
		cutProb: cutProb,
		rng:     rng,
		cur:     graph.RandomConnected(n, baseEdges, rng),
		seen:    make(map[graph.Edge]bool),
	}, nil
}

// Name implements sim.Adversary.
func (a *RequestCutter) Name() string { return a.name }

// NextGraph implements sim.Adversary for unicast only: a broadcast view
// (Choices set) gets nil, failing the run instead of never cutting.
func (a *RequestCutter) NextGraph(view *sim.View) *graph.Graph {
	if view.Choices != nil {
		return nil
	}
	if view.Round == 1 {
		return a.served.copyOf(a.cur)
	}
	// Hot edges: they carried a request last round, so this round they would
	// carry the responding token. LastSent is delivery-sorted, so collecting
	// into a slice (deduped) keeps the RNG draw order deterministic — ranging
	// over a map here made runs irreproducible.
	clear(a.seen)
	hot := a.hot[:0]
	for i := range view.LastSent {
		m := &view.LastSent[i]
		if m.Has(sim.KindRequest) {
			if e := graph.NewEdge(m.From, m.To); !a.seen[e] {
				a.seen[e] = true
				hot = append(hot, e)
			}
		}
	}
	a.hot = hot
	for _, e := range hot {
		if !a.cur.HasEdge(e.U, e.V) {
			continue
		}
		if a.rng.Float64() >= a.cutProb {
			continue
		}
		// Insert a replacement first so connectivity never breaks, then cut.
		a.addReplacement(e)
		if a.cur.RemoveNonBridge(e) {
			a.cuts++
		}
	}
	a.backgroundChurn()
	return a.served.copyOf(a.cur)
}

// backgroundChurn swaps one random non-bridge edge for a random fresh edge,
// keeping the topology mixing even when no requests are in flight.
func (a *RequestCutter) backgroundChurn() {
	m := a.cur.M()
	if m == 0 {
		return
	}
	// EdgeAt indexes the same canonical sorted order Edges() returns, so the
	// single rng.Intn(m) draw (and the edge it picks) is unchanged — without
	// materializing the edge slice every round.
	e, ok := a.cur.EdgeAt(a.rng.Intn(m))
	if !ok {
		return
	}
	if !a.cur.ConnectedWithout(e) {
		return
	}
	a.addReplacement(e)
	// Still no bridge after the replacement went in, so this removes e;
	// unlike RemoveEdge it keeps the graph's connectivity memo.
	a.cur.RemoveNonBridge(e)
}

// addReplacement inserts one random edge distinct from the forbidden edge.
func (a *RequestCutter) addReplacement(forbidden graph.Edge) {
	for try := 0; try < 4*a.n; try++ {
		x, y := a.rng.Intn(a.n), a.rng.Intn(a.n)
		if x == y {
			continue
		}
		e := graph.NewEdge(x, y)
		if e == forbidden || a.cur.HasEdge(x, y) {
			continue
		}
		a.cur.AddEdge(x, y)
		return
	}
}
