package adversary

import (
	"math/rand"

	"dynspread/internal/graph"
	"dynspread/internal/lowerbound"
	"dynspread/internal/sim"
	"dynspread/internal/unionfind"
)

// FreeEdge is the strongly adaptive local-broadcast adversary of Section 2.
// Before every round it sees the tokens all nodes have committed to
// broadcast, computes the free edges (communication that cannot increase the
// potential Φ = Σ_v |K_v ∪ K'_v|), serves a graph containing free edges
// plus the ℓ−1 non-free connector edges needed for connectivity, and thereby
// limits the per-round potential growth to 2(ℓ−1) — and to 0 in rounds with
// few broadcasters (Lemma 2.2).
//
// Where the paper's construction serves every free edge, it serves a
// spanning forest of the free graph: the forest has the same components,
// hence the same potential guarantee, and is much cheaper at large n.
type FreeEdge struct {
	rng *rand.Rand

	inst    *lowerbound.Instance
	setupOK bool
	served  pair

	stats FreeEdgeStats

	// prevPhi is Φ before the previously served round; the potential growth
	// caused by round r's graph is only observable when round r+1 is wired,
	// so sparse/bound attribution for the previous round is kept pending.
	prevPhi       int64
	pendingSparse bool
	pendingComps  int
}

// FreeEdgeStats aggregates the per-round behaviour of the adversary, used by
// the E1/E2 experiments. Progress counters cover every served round except
// the final one (whose effect the adversary never observes); experiments
// that need the exact total use Φ(end) − Φ(0) = nk − InitialPhi on completed
// runs.
type FreeEdgeStats struct {
	Rounds          int
	MaxComponents   int   // max ℓ over rounds (paper: O(log n) w.h.p.)
	SparseRounds    int   // rounds with ≤ SparseThreshold broadcasters
	SparseProgress  int64 // potential growth in sparse rounds (paper: 0 w.h.p.)
	TotalProgress   int64 // observed potential growth
	InitialPhi      int64
	BoundViolations int // rounds where ΔΦ > 2(ℓ−1) (must stay 0)
	SparseThreshold int
}

// NewFreeEdge returns the adversary. Its stats classify a round as sparse
// when it has at most lowerbound.SparseThreshold(n) broadcasters.
func NewFreeEdge(seed int64) *FreeEdge {
	a := &FreeEdge{
		rng:     rand.New(rand.NewSource(seed)),
		prevPhi: -1,
	}
	a.stats.SparseThreshold = -1
	return a
}

// Name implements sim.Adversary. It keeps the "(sparse)" suffix that
// results and stored records carry.
func (a *FreeEdge) Name() string { return "free-edge(sparse)" }

// SetupOK reports whether the sampled K' sets satisfied Φ(0) ≤ 0.8nk (the
// probabilistic-method event of Theorem 2.3). Valid after the first round.
func (a *FreeEdge) SetupOK() bool { return a.setupOK }

// Stats returns the recorded per-round aggregates.
func (a *FreeEdge) Stats() FreeEdgeStats { return a.stats }

// NextGraph implements sim.Adversary for local broadcast only: a view without
// one committed choice per node (unicast) gets nil, failing the run.
func (a *FreeEdge) NextGraph(view *sim.View) *graph.Graph {
	n := view.N
	if len(view.Choices) != n {
		return nil
	}
	if a.inst == nil {
		a.setup(view)
	}
	phi := a.inst.Potential(view)

	// Attribute the potential growth caused by the previously served round.
	if a.prevPhi >= 0 {
		delta := phi - a.prevPhi
		a.stats.TotalProgress += delta
		if a.pendingSparse {
			a.stats.SparseProgress += delta
		}
		if a.pendingComps > 0 && delta > 2*int64(a.pendingComps-1) {
			a.stats.BoundViolations++
		}
	}

	dsu, forest := a.inst.FreeGraph(view)
	comps := dsu.Components()
	if comps > a.stats.MaxComponents {
		a.stats.MaxComponents = comps
	}

	g := a.served.next(n)
	g.Reset()
	for _, e := range forest {
		g.AddEdge(e[0], e[1])
	}
	joinComponents(g, dsu)

	a.stats.Rounds++
	sparse := view.NumBroadcasters() <= a.stats.SparseThreshold
	if sparse {
		a.stats.SparseRounds++
	}
	a.pendingSparse = sparse
	a.pendingComps = comps
	a.prevPhi = phi
	return g
}

// setup samples the K' instance on the first call, retrying until
// Φ(0) ≤ 0.8nk as the probabilistic method requires.
func (a *FreeEdge) setup(view *sim.View) {
	n, k := view.N, view.K
	a.stats.SparseThreshold = lowerbound.SparseThreshold(n)
	var last *lowerbound.Instance
	for attempt := 0; attempt < 100; attempt++ {
		inst, err := lowerbound.Sample(n, k, a.rng)
		if err != nil {
			break
		}
		last = inst
		phi0 := inst.Potential(view)
		if phi0*10 <= int64(n)*int64(k)*8 {
			a.inst = inst
			a.setupOK = true
			a.stats.InitialPhi = phi0
			return
		}
	}
	// Fall back to the last sample (still a valid adversary, just without
	// the theorem's Φ(0) guarantee); SetupOK stays false.
	if last != nil {
		a.inst = last
		a.stats.InitialPhi = last.Potential(view)
	}
}

// joinComponents connects the ℓ components of dsu with ℓ−1 non-free edges
// in g, from the first component's root to every other root (roots in
// increasing order).
func joinComponents(g *graph.Graph, dsu *unionfind.DSU) {
	first := -1
	for v := 0; v < dsu.Len(); v++ {
		if dsu.Find(v) != v {
			continue
		}
		if first < 0 {
			first = v
		} else {
			g.AddEdge(first, v)
		}
	}
}
