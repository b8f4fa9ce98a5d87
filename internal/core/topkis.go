package core

import (
	"dynspread/internal/bitset"
	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

// Topkis is the second static-network baseline from the introduction
// (Topkis [39]): in every round, every node sends to each neighbor an
// arbitrary held token it has not yet sent to that neighbor. On a static
// connected n-node graph this solves k-token dissemination in O(n + k)
// rounds without any tree structure — but it sends up to one message per
// edge direction per round, so its message complexity is Θ(m·(n+k)) and its
// amortized cost has no adversary-competitive guarantee under churn. It
// exists as the contrast point to Algorithm 1's frugality.
type Topkis struct {
	env sim.NodeEnv
	// sent[u] records what this node has forwarded to neighbor u, indexed
	// by node ID; its set is allocated on first contact. A slice, not a
	// map: the per-neighbor lookup is on the round hot path.
	sent []sentTo
	// contacts counts the entries of sent with a set: the neighbors this
	// node has ever had.
	contacts int
	nbrs     []graph.NodeID
	// out is the reusable Send buffer, which the engine reads until the
	// round's Deliver calls. Its capacity covers every neighbor ever
	// contacted, so it grows only on a first contact, alongside sent[u] —
	// never when the degree rises among neighbors the node already knows,
	// which a dynamic adversary can do at any round.
	out []sim.Message
}

// sentTo is what one node has forwarded to one neighbor: the tokens, and
// next, the lowest token not among them. The set stays dense: it only
// grows and is probed by K_v's FirstNotIn, never unioned. Every token below
// next has been sent, so however K_v grows, its lowest token not yet sent
// is at or above next, and the search starts there instead of at token 0.
type sentTo struct {
	tokens *bitset.Set
	next   token.ID
}

// NewTopkis returns the baseline factory.
func NewTopkis() sim.Factory {
	return func(env sim.NodeEnv) sim.Protocol {
		return &Topkis{env: env, sent: make([]sentTo, env.N)}
	}
}

// BeginRound implements sim.Protocol.
//
//dynspread:hotpath
func (p *Topkis) BeginRound(_ int, neighbors []graph.NodeID) { p.nbrs = neighbors }

// Send implements sim.Protocol: the lowest held token not yet sent to each
// neighbor ("an arbitrary not yet forwarded token").
//
//dynspread:hotpath
func (p *Topkis) Send(_ int) []sim.Message {
	out := p.out[:0]
	for _, u := range p.nbrs {
		s := &p.sent[int(u)]
		if s.tokens == nil {
			s.tokens = bitset.New(p.env.K)
			p.contacts++
			out = growOut(out, p.contacts, p.env.N)
		}
		t := p.env.Know.FirstNotIn(s.tokens, s.next)
		if t == token.None {
			continue
		}
		s.tokens.Add(t)
		for s.tokens.Contains(s.next) {
			s.next++
		}
		info := p.env.InfoOf(t)
		// No append: out's capacity covers every neighbor ever contacted,
		// so one more message always fits. The message is written in
		// place: only these fields are ever set in out, so the others stay
		// zero, and no 104-byte Message value is built and copied.
		out = out[:len(out)+1]
		m := &out[len(out)-1]
		m.From, m.To, m.Kinds = p.env.ID, u, sim.KindToken
		m.Token = sim.TokenPayload{ID: t, Owner: info.Source, Index: info.Index}
	}
	p.out = out
	return out
}

// growOut returns out with capacity for at least contacts messages, with
// headroom up to n-1, the largest possible degree.
func growOut(out []sim.Message, contacts, n int) []sim.Message {
	if cap(out) >= contacts {
		return out
	}
	grown := make([]sim.Message, len(out), min(2*contacts, n-1))
	copy(grown, out)
	return grown
}

// Arrive implements sim.TokenArriver, declaring that Topkis supports
// streamed tokens: the engine has already added t to K_v, so t gets pushed
// to every neighbor it has not been sent to, like any other.
//
//dynspread:hotpath
func (p *Topkis) Arrive(int, token.ID) {}

// Deliver implements sim.Protocol; the engine has already added the
// delivered tokens to K_v.
//
//dynspread:hotpath
func (p *Topkis) Deliver(int, []sim.Message) {}
