// Package adversary provides the dynamic-network adversaries of the paper:
// oblivious graph-sequence generators (which commit to the topology sequence
// independent of the execution) and strongly adaptive adversaries (which
// inspect the full execution state, including the current round's committed
// sends, before wiring each round).
package adversary

import (
	"dynspread/internal/graph"
	"dynspread/internal/sim"
)

// Sequence is an oblivious dynamic-graph generator: Graph(r) must depend
// only on the generator's own construction (seed) and on r, never on the
// execution. The engine calls it once per round in increasing round order.
//
// A graph returned for round r must keep its edges through the call for
// round r+1: the engine diffs round r+1 against it (and short-cuts that
// diff by pointer identity). From the call for round r+2 on the generator
// may rewrite it, which is how the dynamic sequences serve every round from
// one pair of graphs they own. A generator whose graph truly never changes
// may re-serve the same object (and is then, correctly, charged zero
// topological changes).
type Sequence interface {
	Name() string
	Graph(r int) *graph.Graph
}

// oblivious adapts a Sequence to sim.Adversary. By construction it ignores
// everything in the view except the round number, which is what makes it
// oblivious — and what lets it serve both communication modes.
type oblivious struct{ seq Sequence }

// Oblivious wraps an oblivious sequence as an adversary for either mode.
func Oblivious(seq Sequence) sim.Adversary { return oblivious{seq} }

func (o oblivious) Name() string { return o.seq.Name() }

func (o oblivious) NextGraph(view *sim.View) *graph.Graph {
	return o.seq.Graph(view.Round)
}

// pair is the two graphs a dynamic adversary serves its rounds from,
// alternating between them: the graph served for round r is rewritten only
// for round r+2, after the engine has diffed round r+1 against it (see
// sim.Adversary).
type pair [2]*graph.Graph

// next returns the graph not served last round, allocated on first use. Its
// content is the graph served two rounds ago; the caller overwrites it.
func (p *pair) next(n int) *graph.Graph {
	p[0], p[1] = p[1], p[0]
	if p[0] == nil {
		p[0] = graph.New(n)
	}
	return p[0]
}

// copyOf returns the graph not served last round, holding a copy of src.
func (p *pair) copyOf(src *graph.Graph) *graph.Graph {
	g := p.next(src.N())
	g.CopyFrom(src)
	return g
}
