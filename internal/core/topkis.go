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
	// contact[u] is 1 + the index in sent of neighbor u's entry, or 0
	// before their first contact. A slice indexed by node ID, not a map:
	// the lookup is on the round hot path.
	contact []int32
	// sent holds what this node has forwarded to each neighbor it has ever
	// had, in first-contact order; its sets are carved from slab. out is
	// the reusable Send buffer, which the engine reads until the round's
	// Deliver calls. All three grow together, only when a first contact
	// finds sent full (see addContact), so out's capacity always covers
	// every neighbor ever contacted: a degree that rises among neighbors
	// the node already knows, which a dynamic adversary can do at any
	// round, grows nothing.
	sent []sentTo
	slab []uint64
	nbrs []graph.NodeID
	out  []sim.Message
}

// sentTo is what one node has forwarded to one neighbor: the tokens, and
// next, the lowest token not among them. The set stays dense: it only
// grows and is probed by K_v's FirstNotIn, never unioned. Every token below
// next has been sent, so however K_v grows, its lowest token not yet sent
// is at or above next, and the search starts there instead of at token 0.
type sentTo struct {
	tokens bitset.Set
	next   token.ID
}

// NewTopkis returns the baseline factory.
func NewTopkis() sim.Factory {
	return func(env sim.NodeEnv) sim.Protocol {
		return &Topkis{env: env, contact: make([]int32, env.N)}
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
		i := p.contact[u]
		if i == 0 {
			out = p.addContact(u, out)
			i = p.contact[u]
		}
		s := &p.sent[i-1]
		t := p.env.Know.FirstNotIn(&s.tokens, s.next)
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

// addContact gives neighbor u an entry in sent, with an empty set carved
// from slab, and returns out, the round's messages so far. When sent is
// full it first grows sent, slab and out to one capacity: the round's
// degree at the node's first contact, which on a static graph covers
// every neighbor the node will have, and twice the old capacity after
// that, but never more than n-1, the largest possible degree.
func (p *Topkis) addContact(u graph.NodeID, out []sim.Message) []sim.Message {
	w := bitset.WordsFor(p.env.K)
	if have := len(p.sent); have == cap(p.sent) {
		size := len(p.nbrs)
		if have > 0 {
			size = min(2*have, p.env.N-1)
		}
		p.sent = append(make([]sentTo, 0, size), p.sent...)
		p.slab = make([]uint64, (size-have)*w)
		out = append(make([]sim.Message, 0, size), out...)
	}
	p.sent = append(p.sent, sentTo{tokens: bitset.Wrap(p.env.K, p.slab[:w:w])})
	p.slab = p.slab[w:]
	p.contact[u] = int32(len(p.sent))
	return out
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
