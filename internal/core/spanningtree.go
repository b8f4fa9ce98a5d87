package core

import (
	"sort"

	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

// SpanningTree is the static-network baseline from the paper's introduction:
// build a rooted spanning tree (costing up to Θ(n²) messages on dense graphs
// in the KT0 model), then pipeline all k tokens down the tree — O(n + k)
// rounds and O(n² + nk) messages overall, i.e. O(n²/k + n) amortized. It is
// only correct on a static (or at least tree-stable) topology; running it
// under real churn is exactly the failure mode that motivates the paper.
//
// Tree construction: the source floods CtrlTreeInvite; on its first invite a
// node adopts the sender as parent, replies CtrlTreeAccept, and re-floods the
// invite to its other neighbors. Distribution: each node forwards received
// tokens to every child, one token per child per round, in index order.
//
// All per-neighbor state is NodeID-indexed, and Send fills a reused buffer,
// so steady-state rounds allocate nothing.
type SpanningTree struct {
	env sim.NodeEnv

	isSource bool
	parent   graph.NodeID // -1 until joined
	joined   bool
	invited  []bool // invited[u]: u was already sent an invite
	children []graph.NodeID

	// queue of tokens to push down, in arrival order; nextToSend[c] indexes
	// into queue per child.
	queue      []sim.TokenPayload
	nextToSend []int

	pendingInvite bool // send invites next round
	acceptPending bool // owe the parent a CtrlTreeAccept
	nbrs          []graph.NodeID
	// sentIn[u] == r marks that Send(r) already wrote a message to u.
	sentIn []int
	// out is the reused Send buffer (the engine copies it before the next
	// Send); Send writes at most one message per neighbor, so it grows
	// only when the degree exceeds every degree before it.
	out []sim.Message
}

// NewSpanningTree returns the baseline factory.
func NewSpanningTree() sim.Factory {
	return func(env sim.NodeEnv) sim.Protocol {
		p := &SpanningTree{
			env:        env,
			parent:     -1,
			invited:    make([]bool, env.N),
			queue:      make([]sim.TokenPayload, 0, env.K),
			nextToSend: make([]int, env.N),
			sentIn:     make([]int, env.N),
		}
		if len(env.Initial) > 0 {
			p.isSource = true
			p.joined = true
			p.pendingInvite = true
			ordered := append([]token.ID(nil), env.Initial...)
			sort.Ints(ordered)
			for i, t := range ordered {
				p.queue = append(p.queue, sim.TokenPayload{
					ID: t, Owner: env.ID, Index: i + 1, Count: len(ordered),
				})
			}
		}
		return p
	}
}

// BeginRound implements sim.Protocol.
//
//dynspread:hotpath
func (p *SpanningTree) BeginRound(_ int, neighbors []graph.NodeID) { p.nbrs = neighbors }

// Send implements sim.Protocol.
//
//dynspread:hotpath
func (p *SpanningTree) Send(r int) []sim.Message {
	out := growOut(p.out[:0], len(p.nbrs), p.env.N)
	// Invitation wave.
	if p.joined && p.pendingInvite {
		for _, u := range p.nbrs {
			if u == p.parent || p.invited[u] {
				continue
			}
			p.invited[u] = true
			out = p.put(out, r, sim.ControlMsg(p.env.ID, u, sim.ControlPayload{Kind: sim.CtrlTreeInvite}))
		}
		p.pendingInvite = false
	}
	// Accept reply to a freshly adopted parent.
	if p.acceptPending && p.parentAdjacent() && p.sentIn[p.parent] != r {
		p.acceptPending = false
		out = p.put(out, r, sim.ControlMsg(p.env.ID, p.parent, sim.ControlPayload{Kind: sim.CtrlTreeAccept}))
	}
	// Pipeline one token per child per round.
	for _, c := range p.children {
		if p.sentIn[c] == r || !p.adjacent(c) {
			continue
		}
		i := p.nextToSend[c]
		if i >= len(p.queue) {
			continue
		}
		p.nextToSend[c] = i + 1
		out = p.put(out, r, sim.TokenMsg(p.env.ID, c, p.queue[i]))
	}
	p.out = out
	return out
}

// growOut returns out with capacity for at least need messages, with
// headroom up to n-1, the largest possible degree.
func growOut(out []sim.Message, need, n int) []sim.Message {
	if cap(out) >= need {
		return out
	}
	grown := make([]sim.Message, len(out), min(2*need, n-1))
	copy(grown, out)
	return grown
}

// put appends m to out and marks its receiver as sent to in round r. Every
// message of a round goes to a distinct neighbor and out has capacity for
// the round's degree, so the append is a reslice within capacity.
//
//dynspread:hotpath
func (p *SpanningTree) put(out []sim.Message, r int, m sim.Message) []sim.Message {
	p.sentIn[m.To] = r
	out = out[:len(out)+1]
	out[len(out)-1] = m
	return out
}

func (p *SpanningTree) adjacent(u graph.NodeID) bool {
	for _, v := range p.nbrs {
		if v == u {
			return true
		}
	}
	return false
}

func (p *SpanningTree) parentAdjacent() bool {
	return p.parent >= 0 && p.adjacent(p.parent)
}

// Deliver implements sim.Protocol.
func (p *SpanningTree) Deliver(_ int, in []sim.Message) {
	for i := range in {
		m := &in[i]
		if m.Has(sim.KindControl) {
			switch m.Control.Kind {
			case sim.CtrlTreeInvite:
				if !p.joined {
					p.joined = true
					p.parent = m.From
					p.acceptPending = true
					p.pendingInvite = true
				}
			case sim.CtrlTreeAccept:
				p.children = append(p.children, m.From)
				sort.Ints(p.children)
			}
		}
		if m.Has(sim.KindToken) {
			p.queue = append(p.queue, m.Token)
		}
	}
}
