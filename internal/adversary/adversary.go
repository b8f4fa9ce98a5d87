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
// A graph returned by Graph must never be mutated afterwards — the engine
// retains it and diffs consecutive rounds by pointer identity for the TC
// accounting. Generators that evolve a graph in place (churn, the request
// cutter) must serve clones; only a generator whose graph truly never
// changes may re-serve the same object (and is then, correctly, charged
// zero topological changes).
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
