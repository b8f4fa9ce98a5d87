// Package lowerbound implements the Section 2 machinery of the paper: the
// probabilistic-method bookkeeping sets K'_v, the potential function
// Φ(t) = Σ_v |K_v(t) ∪ K'_v|, and the free-edge analysis of Lemmas 2.1/2.2.
//
// An edge {u,v} is "free" in round r iff the communication over it cannot
// increase Φ: i_u ∈ {⊥} ∪ K_v(r−1) ∪ K'_v and i_v ∈ {⊥} ∪ K_u(r−1) ∪ K'_u,
// where i_x is the token x locally broadcasts in round r. The strongly
// adaptive adversary adds (all) free edges and then connects the remaining
// ℓ components with ℓ−1 non-free edges, limiting the potential growth to
// 2(ℓ−1) per round.
package lowerbound

import (
	"fmt"
	"math/rand"

	"dynspread/internal/bitset"
	"dynspread/internal/sim"
	"dynspread/internal/token"
	"dynspread/internal/unionfind"
)

// Instance holds one sampled choice of the bookkeeping sets K'_v, plus the
// scratch FreeGraph reuses from round to round.
type Instance struct {
	n      int
	kprime []*bitset.Set

	dsu           *unionfind.DSU
	forest        [][2]int
	silent, bcast []int
}

// Sample draws each K'_v by including every token independently with
// probability 1/4 (the paper's choice), resampling until Σ_v |K'_v| ≤ 0.3nk
// (the Chernoff-bounded event of Theorem 2.3). It errors only if the bound is
// unreachable within a generous retry budget, which for the paper's
// parameters has vanishing probability.
func Sample(n, k int, rng *rand.Rand) (*Instance, error) {
	if n <= 0 || k <= 0 {
		return nil, fmt.Errorf("lowerbound: need n, k > 0 (got n=%d k=%d)", n, k)
	}
	budget := (3 * n * k) / 10
	for attempt := 0; attempt < 200; attempt++ {
		inst := &Instance{n: n, kprime: make([]*bitset.Set, n)}
		total := 0
		for v := 0; v < n; v++ {
			s := bitset.New(k)
			for t := 0; t < k; t++ {
				if rng.Intn(4) == 0 {
					s.Add(t)
					total++ // counted at insertion; no popcount sweep per node
				}
			}
			inst.kprime[v] = s
		}
		if total <= budget {
			return inst, nil
		}
	}
	return nil, fmt.Errorf("lowerbound: could not sample K' with Σ|K'_v| <= 0.3nk for n=%d k=%d", n, k)
}

// Potential computes Φ = Σ_v |K_v ∪ K'_v| against the engine's current
// knowledge (pre-delivery when called from an adversary's NextGraph). Each
// per-node term is one fused union-count through the adaptive knowledge set
// — a single word sweep once K_v is dense, an O(|K_v|) probe walk while it
// is sparse — with no temporary union set materialized.
func (in *Instance) Potential(view *sim.View) int64 {
	var phi int64
	for v := 0; v < in.n; v++ {
		phi += int64(view.KnowledgeUnionCount(v, in.kprime[v]))
	}
	return phi
}

// Free reports whether edge {u,v} is free under the given broadcast choices
// and the pre-round knowledge in view.
func (in *Instance) Free(view *sim.View, u, v int) bool {
	iu, iv := view.Choices[u], view.Choices[v]
	uOK := iu == token.None || view.Knows(v, iu) || in.kprime[v].Contains(iu)
	vOK := iv == token.None || view.Knows(u, iv) || in.kprime[u].Contains(iv)
	return uOK && vOK
}

// FreeGraph computes the connected components of the graph induced by all
// free edges. It returns the DSU plus a spanning forest of the free edges
// (one tree edge per successful union), which is what a sparse adversary
// serves instead of the full free clique. Both belong to the Instance and
// are overwritten by its next FreeGraph call.
//
// Silent-silent pairs are always free, so all non-broadcasting nodes are
// merged pairwise along a path without scanning the quadratic clique.
func (in *Instance) FreeGraph(view *sim.View) (*unionfind.DSU, [][2]int) {
	if in.dsu == nil {
		in.dsu = unionfind.New(in.n)
	} else {
		in.dsu.Reset()
	}
	dsu := in.dsu
	forest := in.forest[:0]
	union := func(a, b int) {
		if dsu.Union(a, b) {
			forest = append(forest, [2]int{a, b})
		}
	}
	silent, bcast := in.silent[:0], in.bcast[:0]
	for v := 0; v < in.n; v++ {
		if view.Choices[v] == token.None {
			silent = append(silent, v)
		} else {
			bcast = append(bcast, v)
		}
	}
	for i := 1; i < len(silent); i++ {
		union(silent[0], silent[i])
	}
	for _, v := range bcast {
		for _, u := range silent {
			if in.Free(view, u, v) {
				union(u, v)
			}
		}
		for _, u := range bcast {
			if u < v && in.Free(view, u, v) {
				union(u, v)
			}
		}
	}
	in.forest, in.silent, in.bcast = forest, silent, bcast
	return dsu, forest
}

// SparseThreshold returns n/(c·log2 n) — the broadcaster budget below which
// Lemma 2.2 guarantees (w.h.p.) that the free graph is connected. c is the
// lemma's constant; the experiments use small c since simulated n is modest.
func SparseThreshold(n int, c float64) int {
	if n < 2 {
		return 0
	}
	lg := 0
	for x := n; x > 1; x >>= 1 {
		lg++
	}
	th := int(float64(n) / (c * float64(lg)))
	if th < 1 {
		th = 1
	}
	return th
}
