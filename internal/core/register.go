package core

import (
	"fmt"

	"dynspread/internal/registry"
	"dynspread/internal/sim"
)

// The paper's algorithms self-register here; everything above the engine
// resolves them by name through the registry. Adding an algorithm is a
// one-file change: implement it and register it from an init like this one.
func init() {
	registry.RegisterAlgorithm(registry.Algorithm{
		Name: "single-source",
		Doc:  "Algorithm 1 (Single-Source-Unicast), run as Multi-Source-Unicast with s = 1: 1-competitive O(n²+nk) messages (Theorem 3.1)",
		Unicast: func(p registry.Params) (sim.Factory, error) {
			if p.Sources > 1 {
				return nil, fmt.Errorf("one source only, got %d; use multi-source for more", p.Sources)
			}
			opts, _ := p.Options.(SingleSourceOpts)
			return NewMultiSourceWithOpts(opts), nil
		},
	})
	registry.RegisterAlgorithm(registry.Algorithm{
		Name: "multi-source",
		Doc:  "Multi-Source-Unicast: O(n²s+nk) messages, O(nk) rounds (Theorems 3.5/3.6)",
		Unicast: func(registry.Params) (sim.Factory, error) {
			return NewMultiSource(), nil
		},
	})
	registry.RegisterAlgorithm(registry.Algorithm{
		Name: "oblivious",
		Doc:  "Algorithm 2 (Oblivious-Multi-Source-Unicast): random-walk centers + dissemination (Theorem 3.8)",
		Unicast: func(p registry.Params) (sim.Factory, error) {
			opts, _ := p.Options.(ObliviousOpts)
			if opts.Seed == 0 {
				opts.Seed = p.Seed + 1
			}
			return NewOblivious(opts), nil
		},
	})
	registry.RegisterAlgorithm(registry.Algorithm{
		Name: "spanning-tree",
		Doc:  "static-network baseline: BFS-tree pipelining, O(n+k) rounds (Introduction)",
		Unicast: func(registry.Params) (sim.Factory, error) {
			return NewSpanningTree(), nil
		},
	})
	registry.RegisterAlgorithm(registry.Algorithm{
		Name: "topkis",
		Doc:  "static baseline (Topkis [39]): push an unsent token on every edge every round",
		Unicast: func(registry.Params) (sim.Factory, error) {
			return NewTopkis(), nil
		},
	})
	registry.RegisterAlgorithm(registry.Algorithm{
		Name: "flooding",
		Doc:  "naive local-broadcast flooder, O(n²)-amortized upper bound (Section 1)",
		Broadcast: func(registry.Params) (sim.BroadcastFactory, error) {
			return NewFlooding(), nil
		},
	})
	registry.RegisterAlgorithm(registry.Algorithm{
		Name: "random-broadcast",
		Doc:  "broadcast a uniformly random held token each round",
		Broadcast: func(registry.Params) (sim.BroadcastFactory, error) {
			return NewRandomBroadcast(), nil
		},
	})
}
