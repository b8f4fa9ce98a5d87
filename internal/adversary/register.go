package adversary

import (
	"math/rand"

	"dynspread/internal/graph"
	"dynspread/internal/registry"
	"dynspread/internal/sim"
)

// The paper's adversaries self-register here, each with one New builder.
// Oblivious sequences serve both communication modes through the Oblivious
// adapter; the strongly adaptive adversaries are tied to one mode each
// (Modes), and their NextGraph returns nil on the other mode's view.
//
// Every registration names its entry with a string literal directly in the
// RegisterAdversary call — the registry analyzer (internal/analysis/passes/
// registryname) pins that convention so the catalog stays greppable.
//
// Every builder derives its randomness from Params.Seed plus a fixed
// per-adversary offset, so an algorithm's node streams (seed), the oblivious
// algorithm's shared stream (seed+1), and each adversary stream never
// collide. The offsets are the pre-registry facade's, kept verbatim so
// golden-seed runs through dynspread.Run stay reproducible across the
// refactor. (cmd/lowerbound used its own ad-hoc seed+7 before; resolving
// through the registry moved it onto the shared offsets.)

// StaticOpts is the registry.Params.AdvOptions type understood by the
// "static" entry. M <= 0 selects the default edge count 2n.
type StaticOpts struct {
	M int
}

// RequestCutterOpts is the registry.Params.AdvOptions type understood by the
// "request-cutter" entry. CutProb <= 0 selects NewRequestCutter's default.
type RequestCutterOpts struct {
	CutProb float64
}

// RewireOpts is the registry.Params.AdvOptions type understood by the
// "rewire" entry. M <= 0 selects the default edge count.
type RewireOpts struct {
	M int
}

// sequenceBuilder constructs one oblivious graph sequence from trial
// parameters.
type sequenceBuilder func(registry.Params) (Sequence, error)

// seq adapts a sequence builder to an adversary builder via the Oblivious
// adapter.
func seq(build sequenceBuilder) func(registry.Params) (sim.Adversary, error) {
	return func(p registry.Params) (sim.Adversary, error) {
		s, err := build(p)
		if err != nil {
			return nil, err
		}
		return Oblivious(s), nil
	}
}

func buildStatic(p registry.Params) (Sequence, error) {
	opts, _ := p.AdvOptions.(StaticOpts)
	m := opts.M
	if m <= 0 {
		m = 2 * p.N
	}
	rng := rand.New(rand.NewSource(p.Seed + 101))
	return NewStatic(graph.RandomConnected(p.N, m, rng)), nil
}

func buildChurn(p registry.Params) (Sequence, error) {
	return NewChurn(p.N, ChurnOpts{Sigma: p.Sigma}, p.Seed+102)
}

func buildRewire(p registry.Params) (Sequence, error) {
	opts, _ := p.AdvOptions.(RewireOpts)
	return NewRewire(p.N, opts.M, p.Seed+103)
}

func buildMarkovian(p registry.Params) (Sequence, error) {
	return NewMarkovian(p.N, 0.05, 0.2, p.Seed+104)
}

func buildRegular(p registry.Params) (Sequence, error) {
	return NewRegular(p.N, 6, p.Seed+105)
}

func buildRotatingStar(p registry.Params) (Sequence, error) {
	return NewRotatingStar(p.N)
}

func buildMobility(p registry.Params) (Sequence, error) {
	return NewMobility(p.N, p.Seed+108)
}

func init() {
	registry.RegisterAdversary(registry.Adversary{
		Name:  "static",
		Doc:   "fixed random connected graph (default m = 2n)",
		Modes: registry.Unicast | registry.Broadcast,
		New:   seq(buildStatic),
	})
	registry.RegisterAdversary(registry.Adversary{
		Name:  "churn",
		Doc:   "σ-edge-stable random churn (σ = Sigma, default 3; Theorems 3.4/3.6)",
		Modes: registry.Unicast | registry.Broadcast,
		New:   seq(buildChurn),
	})
	registry.RegisterAdversary(registry.Adversary{
		Name:  "rewire",
		Doc:   "fresh random connected graph every round",
		Modes: registry.Unicast | registry.Broadcast,
		New:   seq(buildRewire),
	})
	registry.RegisterAdversary(registry.Adversary{
		Name:  "markovian",
		Doc:   "edge-Markovian evolving graph (pOn=0.05, pOff=0.2)",
		Modes: registry.Unicast | registry.Broadcast,
		New:   seq(buildMarkovian),
	})
	registry.RegisterAdversary(registry.Adversary{
		Name:  "regular",
		Doc:   "fresh random near-6-regular graphs (Algorithm 2's substrate, Lemma 3.7)",
		Modes: registry.Unicast | registry.Broadcast,
		New:   seq(buildRegular),
	})
	registry.RegisterAdversary(registry.Adversary{
		Name:  "rotating-star",
		Doc:   "star with rotating center: Θ(n) topological changes per rotation",
		Modes: registry.Unicast | registry.Broadcast,
		New:   seq(buildRotatingStar),
	})
	registry.RegisterAdversary(registry.Adversary{
		Name:  "mobility",
		Doc:   "unit-disk graphs of nodes drifting through an arena",
		Modes: registry.Unicast | registry.Broadcast,
		New:   seq(buildMobility),
	})
	registry.RegisterAdversary(registry.Adversary{
		Name:  "request-cutter",
		Doc:   "strongly adaptive: cuts request-carrying edges (stresses Theorems 3.1/3.5)",
		Modes: registry.Unicast,
		New: func(p registry.Params) (sim.Adversary, error) {
			opts, _ := p.AdvOptions.(RequestCutterOpts)
			return NewRequestCutter(p.N, opts.CutProb, p.Seed+106)
		},
	})
	registry.RegisterAdversary(registry.Adversary{
		Name:  "free-edge",
		Doc:   "Section 2 strongly adaptive local-broadcast lower-bound adversary",
		Modes: registry.Broadcast,
		New: func(p registry.Params) (sim.Adversary, error) {
			return NewFreeEdge(p.Seed + 107), nil
		},
	})
}
