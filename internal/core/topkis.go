package core

import (
	"dynspread/internal/bitset"
	"dynspread/internal/bitset/adaptive"
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
	env  sim.NodeEnv
	know *adaptive.Set
	// sent[u] is the set of tokens already forwarded to neighbor u, indexed
	// by node ID and allocated lazily on first contact. A slice, not a map:
	// the per-neighbor lookup is on the round hot path.
	sent []*bitset.Set
	// contacts counts the non-nil entries of sent: the neighbors this node
	// has ever had.
	contacts int
	nbrs     []graph.NodeID
	// out is the reusable Send buffer; the engine copies messages out of it
	// before the next round. Its capacity covers every neighbor ever
	// contacted, so it grows only on a first contact, alongside sent[u] —
	// never when the degree rises among neighbors the node already knows,
	// which a dynamic adversary can do at any round.
	out []sim.Message
}

// NewTopkis returns the baseline factory.
func NewTopkis() sim.Factory {
	return func(env sim.NodeEnv) sim.Protocol {
		p := &Topkis{
			env:  env,
			know: adaptive.New(env.K),
			sent: make([]*bitset.Set, env.N),
		}
		for _, t := range env.Initial {
			p.know.Add(t)
		}
		return p
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
		s := p.sent[int(u)]
		if s == nil {
			s = bitset.New(p.env.K)
			p.sent[int(u)] = s
			p.contacts++
			out = growOut(out, p.contacts, p.env.N)
		}
		t := pickUnsent(p.know, s)
		if t == token.None {
			continue
		}
		s.Add(t)
		info := p.env.InfoOf(t)
		// No append: out's capacity covers every neighbor ever contacted,
		// so one more message always fits.
		out = out[:len(out)+1]
		out[len(out)-1] = sim.TokenMsg(p.env.ID, u,
			sim.TokenPayload{ID: t, Owner: info.Source, Index: info.Index})
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

// pickUnsent returns the lowest token in know but not in sentTo, or None.
// know is adaptive (near-empty early, near-full late); sentTo stays dense —
// it only ever grows and is probed, never unioned.
//
//dynspread:hotpath
func pickUnsent(know *adaptive.Set, sentTo *bitset.Set) token.ID {
	if t := know.FirstNotIn(sentTo); t >= 0 {
		return t
	}
	return token.None
}

// Arrive implements sim.TokenArriver: a streamed token joins the known set
// and gets pushed to every neighbor it has not been sent to, like any other.
//
//dynspread:hotpath
func (p *Topkis) Arrive(_ int, t token.ID) { p.know.Add(t) }

// Deliver implements sim.Protocol.
//
//dynspread:hotpath
func (p *Topkis) Deliver(_ int, in []sim.Message) {
	for i := range in {
		if in[i].Has(sim.KindToken) {
			p.know.Add(in[i].Token.ID)
		}
	}
}
