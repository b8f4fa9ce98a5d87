package core

import (
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

// Flooding is the paper's naive local-broadcast algorithm: "each node
// broadcasts each token for n rounds". Time is divided into windows of
// WindowLen rounds; in window w every node holding token (w mod k) broadcasts
// it. Because every round's graph is connected, at least one edge crosses
// the knower/non-knower cut, so each window fully spreads its token and the
// whole dissemination finishes within nk rounds using at most n broadcasts
// per round — the O(n²) amortized-messages upper bound of Section 1. A node
// keeps no set of its own: it reads K_v from env.Know.
type Flooding struct {
	env       sim.NodeEnv
	windowLen int
	// scheduled is the token of the window that ends at round windowEnd.
	// Choose recomputes both only when a round passes windowEnd, so two
	// integer divisions run once per window instead of once per round.
	scheduled token.ID
	windowEnd int
}

// NewFlooding returns the flooding factory. windowLen <= 0 selects n (the
// value the correctness argument needs; smaller values are exposed for
// ablation only).
func NewFlooding(windowLen int) sim.BroadcastFactory {
	return func(env sim.NodeEnv) sim.BroadcastProtocol {
		w := windowLen
		if w <= 0 {
			w = env.N
		}
		return &Flooding{env: env, windowLen: w}
	}
}

// Choose implements sim.BroadcastProtocol: broadcast the window's scheduled
// token iff this node holds it. Rounds reach Choose in increasing order,
// but a wrapper may skip some (SilentBroadcast asks only its
// broadcasters), so a passed window is recomputed from r, not stepped.
//
//dynspread:hotpath
func (f *Flooding) Choose(r int) token.ID {
	if f.env.K == 0 {
		return token.None
	}
	if r > f.windowEnd {
		w := (r - 1) / f.windowLen
		f.scheduled = w % f.env.K
		f.windowEnd = (w + 1) * f.windowLen
	}
	if f.env.Know.Contains(f.scheduled) {
		return f.scheduled
	}
	return token.None
}

// Deliver implements sim.BroadcastProtocol; the engine has already added
// the learned tokens to K_v.
//
//dynspread:hotpath
func (f *Flooding) Deliver(int, []token.ID) {}

// Arrive implements sim.TokenArriver, declaring that flooding supports
// streamed tokens: the engine has already added t to K_v, and t is
// broadcast whenever its window next comes around.
//
//dynspread:hotpath
func (f *Flooding) Arrive(int, token.ID) {}

// RandomBroadcast broadcasts a uniformly random held token every round. It
// makes no per-round progress guarantee against a strongly adaptive
// adversary (the free-edge adversary can often block it entirely); the E1
// experiment uses it to show the lower bound is not an artifact of
// flooding's schedule.
type RandomBroadcast struct {
	env sim.NodeEnv
	// know lists K_v in the order the node learned it: the index space of
	// Choose's random pick.
	know []token.ID
}

// NewRandomBroadcast returns the factory.
func NewRandomBroadcast() sim.BroadcastFactory {
	return func(env sim.NodeEnv) sim.BroadcastProtocol {
		return &RandomBroadcast{env: env, know: append([]token.ID(nil), env.Initial...)}
	}
}

// Choose implements sim.BroadcastProtocol.
//
//dynspread:hotpath
func (p *RandomBroadcast) Choose(int) token.ID {
	if len(p.know) == 0 {
		return token.None
	}
	return p.know[p.env.Rng.Intn(len(p.know))]
}

// Deliver implements sim.BroadcastProtocol: every learned token is new to
// the node.
//
//dynspread:hotpath
func (p *RandomBroadcast) Deliver(_ int, learned []token.ID) {
	//dynspread:allow hotpath -- amortized: know grows once per distinct token, at most k times over the whole run
	p.know = append(p.know, learned...)
}

// Arrive implements sim.TokenArriver. No node holds a token before it
// arrives at its source, so t is new.
//
//dynspread:hotpath
func (p *RandomBroadcast) Arrive(_ int, t token.ID) {
	//dynspread:allow hotpath -- amortized: know grows once per distinct token, at most k times over the whole run
	p.know = append(p.know, t)
}

// SilentBroadcast runs flooding's schedule but only lets nodes with ID below
// Broadcasters speak. With Broadcasters ≤ n/(c log n) it realizes the
// c-sparse token assignments of Lemma 2.2: against the free-edge adversary
// the free graph stays connected and zero potential progress occurs, so the
// E2 experiment can observe the lemma directly.
type SilentBroadcast struct {
	inner        sim.BroadcastProtocol
	id           int
	broadcasters int
}

// NewSilentBroadcast returns the factory; broadcasters is the number of
// nodes allowed to broadcast (IDs 0..broadcasters-1).
func NewSilentBroadcast(broadcasters, windowLen int) sim.BroadcastFactory {
	flood := NewFlooding(windowLen)
	return func(env sim.NodeEnv) sim.BroadcastProtocol {
		return &SilentBroadcast{inner: flood(env), id: env.ID, broadcasters: broadcasters}
	}
}

// Choose implements sim.BroadcastProtocol.
//
//dynspread:hotpath
func (p *SilentBroadcast) Choose(r int) token.ID {
	if p.id >= p.broadcasters {
		return token.None
	}
	return p.inner.Choose(r)
}

// Deliver implements sim.BroadcastProtocol.
//
//dynspread:hotpath
func (p *SilentBroadcast) Deliver(r int, learned []token.ID) {
	p.inner.Deliver(r, learned)
}

// Arrive implements sim.TokenArriver by delegating to the wrapped protocol
// (always Flooding, which implements it). The unchecked assertion is
// deliberate: silently dropping an arrival would make the run never
// complete, so a wrapper around a non-streaming protocol must fail loudly.
func (p *SilentBroadcast) Arrive(r int, t token.ID) {
	p.inner.(sim.TokenArriver).Arrive(r, t)
}
