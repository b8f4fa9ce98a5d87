package adversary

import (
	"math/rand"

	"dynspread/internal/graph"
	"dynspread/internal/lowerbound"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

// WeakFreeEdge is the weakly adaptive variant of the Section 2 adversary
// (footnote 4): it knows the algorithm's randomness only up to the previous
// round, so it wires round r using the broadcast choices of round r−1 as its
// prediction. For deterministic algorithms (e.g. schedule-aligned flooding)
// the prediction is exact and the adversary coincides with the strongly
// adaptive FreeEdge; for randomized algorithms its mispredictions let
// non-free communication slip through — the separation the E12 experiment
// measures.
type WeakFreeEdge struct {
	name string
	rng  *rand.Rand

	inst    *lowerbound.Instance
	setupOK bool
	served  pair

	prevChoices []token.ID
	mispredicts int64
	rounds      int64
}

// NewWeakFreeEdge returns the weakly adaptive free-edge adversary.
func NewWeakFreeEdge(seed int64) *WeakFreeEdge {
	return &WeakFreeEdge{
		name: "weak-free-edge",
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Name implements sim.Adversary.
func (a *WeakFreeEdge) Name() string { return a.name }

// SetupOK reports whether Φ(0) ≤ 0.8nk held for the sampled K' sets.
func (a *WeakFreeEdge) SetupOK() bool { return a.setupOK }

// MispredictRate returns the fraction of (node, round) broadcast choices the
// adversary predicted wrongly — 0 for deterministic algorithms.
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
	if a.inst == nil {
		a.setup(view)
	}
	if a.inst == nil {
		// K' sampling is only impossible for n, k <= 0, which the engine
		// rejects before calling adversaries; returning nil makes the engine
		// abort with a clear error rather than panicking here.
		return nil
	}
	predicted := a.prevChoices
	if predicted == nil {
		predicted = make([]token.ID, n)
		for i := range predicted {
			predicted[i] = token.None
		}
	}

	// Build the free graph with respect to the PREDICTED assignment.
	predView := *view
	predView.Choices = predicted
	dsu, forest := a.inst.FreeGraph(&predView)
	g := a.served.next(n)
	g.Reset()
	for _, e := range forest {
		g.AddEdge(e[0], e[1])
	}
	joinComponents(g, dsu)

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

func (a *WeakFreeEdge) setup(view *sim.View) {
	n, k := view.N, view.K
	var last *lowerbound.Instance
	for attempt := 0; attempt < 100; attempt++ {
		inst, err := lowerbound.Sample(n, k, a.rng)
		if err != nil {
			break
		}
		last = inst
		if inst.Potential(view)*10 <= int64(n)*int64(k)*8 {
			a.inst = inst
			a.setupOK = true
			return
		}
	}
	a.inst = last
}
