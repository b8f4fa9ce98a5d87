package adversary

import (
	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

// WeakFreeEdge is the weakly adaptive variant of the Section 2 adversary
// (footnote 4): it knows the algorithm's randomness only up to the previous
// round, so it predicts round r's broadcast choices as round r−1's and wires
// round r by running FreeEdge on that prediction. The prediction is not
// exact even for deterministic algorithms: flooding changes its choices at
// every window boundary and whenever a node learns its window's token. For
// randomized algorithms the mispredictions let non-free communication slip
// through — the separation the E12 experiment measures.
type WeakFreeEdge struct {
	inner *FreeEdge

	prevChoices []token.ID
	mispredicts int64
	rounds      int64
}

// NewWeakFreeEdge returns the weakly adaptive free-edge adversary.
func NewWeakFreeEdge(seed int64) *WeakFreeEdge {
	return &WeakFreeEdge{inner: NewFreeEdge(seed)}
}

// Name implements sim.Adversary.
func (a *WeakFreeEdge) Name() string { return "weak-free-edge" }

// SetupOK reports whether Φ(0) ≤ 0.8nk held for the sampled K' sets.
func (a *WeakFreeEdge) SetupOK() bool { return a.inner.SetupOK() }

// MispredictRate returns the fraction of (node, round) broadcast choices the
// adversary predicted wrongly: the nodes whose choice differs from their
// previous round's.
func (a *WeakFreeEdge) MispredictRate() float64 {
	if a.rounds == 0 {
		return 0
	}
	return float64(a.mispredicts) / float64(a.rounds)
}

// NextGraph implements sim.Adversary. The engine hands it the true
// current-round choices (it hands every adversary the same view); obeying
// the weak-adaptivity restriction, this adversary only reads them AFTER
// wiring the round, to score its own prediction accuracy. Like FreeEdge it
// returns nil on a unicast view.
func (a *WeakFreeEdge) NextGraph(view *sim.View) *graph.Graph {
	n := view.N
	if len(view.Choices) != n {
		return nil
	}
	predicted := a.prevChoices
	if predicted == nil {
		predicted = make([]token.ID, n)
		for i := range predicted {
			predicted[i] = token.None
		}
	}

	// Wire the round as the strong adversary would for the PREDICTED choices.
	predView := *view
	predView.Choices = predicted
	g := a.inner.NextGraph(&predView)

	// Score the prediction against the true choices (read only after the
	// graph is fixed) and remember them for next round.
	for v := 0; v < n; v++ {
		a.rounds++
		if predicted[v] != view.Choices[v] {
			a.mispredicts++
		}
	}
	a.prevChoices = append(a.prevChoices[:0], view.Choices...)
	return g
}
