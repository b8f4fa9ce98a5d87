package core

import (
	"math"
	"math/rand"
	"sort"

	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

// ObliviousOpts tunes Algorithm 2. The zero value selects the paper's
// parameters with unit leading constants.
type ObliviousOpts struct {
	// Seed drives the shared random choices (center marking). The paper's
	// adversary is oblivious, so sharing a seed across nodes is sound.
	Seed int64
	// CF scales the center parameter f = CF·n^{1/2}·k^{1/4}·log^{5/4} n
	// (clamped to [1, n]); CGamma scales the high-degree threshold
	// γ = CGamma·(n·log n)/f. Both default to 1 when <= 0. The phase-1
	// trigger threshold is s0 = n^{2/3}·log^{5/3} n.
	CF, CGamma float64
	// Phase1Cap caps phase 1's length; 0 selects the paper's formula
	// ℓ = k^{1/4}·n^{5/2}·log^{9/4} n. Phase 1 also ends early as soon as
	// every token has reached a center. That exit is a simulation shortcut,
	// not a step of the distributed algorithm: it reads a run-global count
	// of parked tokens (obliviousShared.parked) that no node can observe.
	// The phase-1 rounds it skips would send nothing, since parked tokens
	// send nothing and no walk is left; it shortens the measured phase-1
	// time and moves phase 2 to an earlier round, and so onto different
	// graphs.
	Phase1Cap int
	// ForceTwoPhase skips the s ≤ s0 shortcut and always runs the
	// random-walk phase (used by experiments at small n, where the
	// asymptotic threshold would otherwise always select plain
	// MultiSource).
	ForceTwoPhase bool
	// Stats, when non-nil, receives run instrumentation (phase-switch round,
	// marked centers). Shared across all nodes of the run.
	Stats *ObliviousStats
}

// ObliviousStats records Algorithm 2 run instrumentation.
type ObliviousStats struct {
	// Centers is the number of nodes marked as centers.
	Centers int
	// SwitchRound is the round at which phase 2 began (0 = single-phase or
	// not yet switched).
	SwitchRound int
	// ForcedSwitch is true when the phase-1 cap fired with tokens still
	// walking (their hosts became owners).
	ForcedSwitch bool
}

func logn(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(float64(n))
}

// ObliviousParams reports the resolved parameters for an (n, k, s) instance;
// exposed for the experiment tables.
type ObliviousParams struct {
	TwoPhase  bool
	F         int     // number of centers targeted (expectation)
	Gamma     float64 // high-degree threshold
	S0        float64 // phase-1 trigger threshold on s
	Phase1Cap int
}

// ResolveObliviousParams computes the Algorithm 2 parameters.
func ResolveObliviousParams(n, k, s int, opts ObliviousOpts) ObliviousParams {
	cf, cg := opts.CF, opts.CGamma
	if cf <= 0 {
		cf = 1
	}
	if cg <= 0 {
		cg = 1
	}
	lg := logn(n)
	var p ObliviousParams
	p.S0 = math.Pow(float64(n), 2.0/3.0) * math.Pow(lg, 5.0/3.0)
	p.TwoPhase = opts.ForceTwoPhase || float64(s) > p.S0
	f := cf * math.Sqrt(float64(n)) * math.Pow(float64(k), 0.25) * math.Pow(lg, 1.25)
	if f < 1 {
		f = 1
	}
	if f > float64(n) {
		f = float64(n)
	}
	p.F = int(f)
	p.Gamma = cg * float64(n) * lg / f
	if opts.Phase1Cap > 0 {
		p.Phase1Cap = opts.Phase1Cap
	} else {
		cap64 := math.Pow(float64(k), 0.25) * math.Pow(float64(n), 2.5) * math.Pow(lg, 2.25)
		if cap64 > 1e9 {
			cap64 = 1e9
		}
		p.Phase1Cap = int(cap64)
	}
	return p
}

// obliviousShared is the state shared by all Algorithm 2 nodes of one run:
// the center marking (common randomness under an oblivious adversary) and
// the phase-1 termination bookkeeping. The parked counter is a simulation
// measurement device — see ObliviousOpts.Phase1Cap.
type obliviousShared struct {
	params    ObliviousParams
	centers   []bool
	parked    int
	k         int
	switched  bool
	switchTry func(r int) bool
}

func newObliviousShared(n, k, s int, opts ObliviousOpts) *obliviousShared {
	sh := &obliviousShared{
		params:  ResolveObliviousParams(n, k, s, opts),
		centers: make([]bool, n),
		k:       k,
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	marked := 0
	for v := 0; v < n; v++ {
		if rng.Float64()*float64(n) < float64(sh.params.F) {
			sh.centers[v] = true
			marked++
		}
	}
	if marked == 0 {
		// Expectation f >= 1; guarantee at least one center so walks can
		// terminate.
		sh.centers[rng.Intn(n)] = true
		marked = 1
	}
	if opts.Stats != nil {
		opts.Stats.Centers = marked
	}
	sh.switchTry = func(r int) bool {
		if sh.switched {
			return true
		}
		if sh.parked >= sh.k || r > sh.params.Phase1Cap {
			sh.switched = true
			if opts.Stats != nil {
				opts.Stats.SwitchRound = r
				opts.Stats.ForcedSwitch = sh.parked < sh.k
			}
		}
		return sh.switched
	}
	return sh
}

// Oblivious is one node of Algorithm 2 (Oblivious-Multi-Source-Unicast).
type Oblivious struct {
	env    sim.NodeEnv
	shared *obliviousShared

	// phase 1 state
	hosted []token.ID // walking tokens currently at this node
	parked []token.ID // tokens owned by this center
	nbrs   []graph.NodeID

	// phase 2 delegate (nil until the switch)
	sub *MultiSource
}

// NewOblivious returns the Algorithm 2 factory. The paper assumes n, k and s
// are common knowledge (Section 3.2.2); both are read from the node
// environment. When s is at most the threshold s0, the factory degrades to
// plain MultiSource exactly as the algorithm prescribes.
//
// The factory may be reused across executions: the engine builds nodes
// 0..n−1 in order at the start of each one (see sim.Factory), so node 0
// starts a fresh shared state.
func NewOblivious(opts ObliviousOpts) sim.Factory {
	var shared *obliviousShared
	multi := NewMultiSource()
	return func(env sim.NodeEnv) sim.Protocol {
		if env.ID == 0 || shared == nil {
			shared = newObliviousShared(env.N, env.K, env.NumSources, opts)
		}
		if !shared.params.TwoPhase {
			return multi(env)
		}
		p := &Oblivious{env: env, shared: shared}
		if shared.centers[env.ID] {
			// A center source parks its own tokens immediately.
			p.parked = append(p.parked, env.Initial...)
			shared.parked += len(env.Initial)
		} else {
			p.hosted = append(p.hosted, env.Initial...)
		}
		return p
	}
}

// BeginRound implements sim.Protocol.
func (p *Oblivious) BeginRound(r int, neighbors []graph.NodeID) {
	if p.sub == nil && p.shared.switchTry(r) {
		p.startPhase2()
	}
	if p.sub != nil {
		p.sub.BeginRound(r, neighbors)
		return
	}
	p.nbrs = neighbors
}

// startPhase2 builds the MultiSource delegate with this node's owned tokens:
// parked tokens for centers, plus any still-hosted tokens (the walk
// terminates at its current host when the phase-1 cap fires — a forced park
// that preserves the one-owner-per-token invariant).
func (p *Oblivious) startPhase2() {
	own := append(append([]token.ID(nil), p.parked...), p.hosted...)
	sort.Ints(own)
	owned := make([]OwnedToken, len(own))
	for i, g := range own {
		owned[i] = OwnedToken{Global: g, Index: i + 1, Count: len(own)}
	}
	p.sub = NewMultiSourceWith(p.env, owned)
	p.hosted = nil
	p.parked = nil
}

// Send implements sim.Protocol: one random-walk step (or high-degree
// center handoff) per hosted token, respecting one token per edge per round.
func (p *Oblivious) Send(r int) []sim.Message {
	if p.sub != nil {
		return p.sub.Send(r)
	}
	if len(p.hosted) == 0 {
		return nil
	}
	deg := len(p.nbrs)
	if deg == 0 {
		return nil
	}
	var out []sim.Message
	usedEdge := make(map[graph.NodeID]bool, deg)

	if float64(deg) >= p.shared.params.Gamma {
		// High-degree: hand one token to each neighboring center.
		for _, c := range p.nbrs {
			if !p.shared.centers[c] || len(p.hosted) == 0 {
				continue
			}
			t := p.hosted[len(p.hosted)-1]
			p.hosted = p.hosted[:len(p.hosted)-1]
			out = append(out, sim.WalkMsg(p.env.ID, c, sim.WalkPayload{ID: t}))
		}
		return out
	}

	// Low-degree: each token steps to a uniformly random of the node's n
	// virtual ports; the deg real ports each carry at most one token per
	// round (congestion keeps the rest passive).
	kept := p.hosted[:0]
	for _, t := range p.hosted {
		if p.env.Rng.Float64() >= float64(deg)/float64(p.env.N) {
			kept = append(kept, t) // self-loop step
			continue
		}
		u := p.nbrs[p.env.Rng.Intn(deg)]
		if usedEdge[u] {
			kept = append(kept, t) // congestion: passive this round
			continue
		}
		usedEdge[u] = true
		out = append(out, sim.WalkMsg(p.env.ID, u, sim.WalkPayload{ID: t}))
	}
	p.hosted = kept
	return out
}

// Deliver implements sim.Protocol.
func (p *Oblivious) Deliver(r int, in []sim.Message) {
	if p.sub != nil {
		p.sub.Deliver(r, in)
		return
	}
	for i := range in {
		m := &in[i]
		if !m.Has(sim.KindWalk) {
			continue
		}
		if p.shared.centers[p.env.ID] {
			p.parked = append(p.parked, m.Walk.ID)
			p.shared.parked++
		} else {
			p.hosted = append(p.hosted, m.Walk.ID)
		}
	}
}
