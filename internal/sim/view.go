package sim

import (
	"math/rand"

	"dynspread/internal/bitset"
	"dynspread/internal/bitset/adaptive"
	"dynspread/internal/graph"
	"dynspread/internal/token"
)

// View is the read-only execution state handed to adversaries of either mode
// when they pick the next round's graph, and to Config.OnRound after each
// round. A strongly adaptive adversary may use all of it; an oblivious
// adversary must ignore everything except Round and N (the adversary
// package's Oblivious adapter enforces this by construction — it pre-commits
// to a sequence that depends only on its own seed).
//
// All accessors return snapshots or read-only data; adversaries and hooks
// must not mutate anything reachable from a View.
type View struct {
	// Round is the round whose graph is being chosen (1-based).
	Round int
	// N is the number of nodes.
	N int
	// K is the number of tokens.
	K int
	// LastSent holds the messages sent (and delivered) in the previous
	// round when the adversary reads it, and in the current round when
	// OnRound does; nil before round 1 and in broadcast mode. Read-only.
	// This is what lets a strongly adaptive adversary cut edges that carry
	// pending request/response exchanges.
	LastSent []Message
	// Choices holds the round's committed local broadcasts, which the
	// Section 2 adversary sees before wiring the graph: Choices[v] is the
	// token v is about to broadcast, or token.None. nil in unicast mode.
	Choices []token.ID

	know []*adaptive.Set
}

// Knows reports whether node v currently holds token t.
//
//dynspread:hotpath
func (v *View) Knows(node graph.NodeID, t token.ID) bool {
	if node < 0 || node >= len(v.know) {
		return false
	}
	return v.know[node].Contains(t)
}

// KnowledgeUnionCount returns |K_v ∪ other| for an adversary-supplied set
// (used by the Section 2 adversary for the potential function Φ without
// copying knowledge sets every round). It goes through the adaptive
// representation: a fused word sweep when K_v is dense, an O(|K_v|) probe
// walk while it is still sparse.
//
//dynspread:hotpath
func (v *View) KnowledgeUnionCount(node graph.NodeID, other *bitset.Set) int {
	if node < 0 || node >= len(v.know) {
		return -1
	}
	return v.know[node].UnionCount(other)
}

// NumBroadcasters returns the number of nodes broadcasting this round.
//
//dynspread:hotpath
func (v *View) NumBroadcasters() int {
	c := 0
	for _, t := range v.Choices {
		if t != token.None {
			c++
		}
	}
	return c
}

// Adversary supplies the dynamic topology of an execution in either mode.
// NextGraph must return a connected graph on view.N nodes; the engine
// validates this and aborts the run otherwise, which is how an adversary
// tied to one mode refuses the other's view: it returns nil.
type Adversary interface {
	// Name identifies the adversary in reports.
	Name() string
	// NextGraph returns the communication graph of round view.Round. The
	// graph served for round r must keep its edges through the call for
	// round r+1: the engine diffs round r+1 against it and short-cuts that
	// diff by identity. From the call for round r+2 on the adversary may
	// rewrite it, so a dynamic adversary can serve its rounds from two
	// graphs it owns, alternating between them; one that never changes its
	// graph may serve one snapshot every round (then the engine charges
	// zero topological changes, correctly). The engine checks the rule
	// with graph.Graph.Mutations and fails a run that breaks it.
	NextGraph(view *View) *graph.Graph
}

// NodeEnv is the per-node environment handed to protocol factories.
type NodeEnv struct {
	// ID is this node's identifier.
	ID graph.NodeID
	// N and K are common knowledge (number of nodes and tokens), as assumed
	// by the paper's algorithms.
	N, K int
	// NumSources is the number of source nodes s; Algorithm 2 assumes it is
	// known to all nodes (Section 3.2.2).
	NumSources int
	// Initial holds the tokens this node starts with.
	Initial []token.ID
	// Know is this node's own knowledge set K_v, the one the engine keeps
	// and checks sends against: a protocol that needs to know which tokens
	// it holds reads it instead of keeping a copy. It holds Initial when
	// the factory runs and the engine keeps it current (see Protocol,
	// BroadcastProtocol and TokenArriver for when tokens join it). Valid
	// for this execution only.
	Know Knowledge
	// InfoOf returns the ⟨source, index⟩ labeling of a token. Protocols use
	// it only to label tokens they hold (sources labeling their own tokens).
	InfoOf func(token.ID) token.Info
	// Rng is this node's private randomness stream, derived from the
	// execution's Seed and seeded at the node's first draw, so a node that
	// never draws costs no generator. Valid for this execution only; the
	// Workspace reseeds it.
	Rng *rand.Rand
}

// Knowledge is a read-only view of one node's knowledge set K_v. It offers
// reads only: a protocol that could add to its own K_v would get past the
// engine's token-forwarding check. The set lives in the execution's
// Workspace, which the next execution resets, so a Knowledge is valid for
// one execution only.
type Knowledge struct{ s *adaptive.Set }

// Contains reports whether the node holds token t.
//
//dynspread:hotpath
func (k Knowledge) Contains(t token.ID) bool { return k.s.Contains(t) }

// FirstNotIn returns the lowest token at or above from that the node holds
// and o lacks, or token.None (adaptive.Set.FirstNotInFrom's -1) when there
// is none. A caller that knows o holds every token below some bound passes
// that bound as from and skips the scan of that prefix.
//
//dynspread:hotpath
func (k Knowledge) FirstNotIn(o *bitset.Set, from token.ID) token.ID {
	return k.s.FirstNotInFrom(o, from)
}

// Protocol is a unicast token-forwarding algorithm instance at one node.
// Each round the engine calls BeginRound (delivering the paper's round-start
// neighbor information), then Send, then Deliver with the messages addressed
// to this node. The engine adds every token delivered in a round to the
// receivers' knowledge sets before it calls any Deliver, so NodeEnv.Know
// already holds them there.
//
// Hot-path buffer contracts (what makes steady-state rounds allocation-free):
//
//   - neighbors is shared with the round's graph: read-only, valid until the
//     next BeginRound.
//   - The engine reads the slice returned by Send where it lies, until the
//     round's Deliver calls: nothing may change it before then, the other
//     nodes' Send calls included, so each node needs its own buffer. From
//     Deliver on it is the protocol's again, so one buffer per node can
//     serve every round.
//   - in is delivered sorted by sender ID (the engine's (To, From) delivery
//     order); it aliases engine state, so it is read-only and must not be
//     retained or mutated past the Deliver call.
type Protocol interface {
	BeginRound(r int, neighbors []graph.NodeID)
	Send(r int) []Message
	Deliver(r int, in []Message)
}

// Factory builds the protocol instance for one node. At the start of each
// execution the engine calls it once per node, for IDs 0..n−1 in order, so
// a factory that keeps state shared by the nodes of one execution can start
// it afresh at node 0 and be reused across executions.
type Factory func(env NodeEnv) Protocol

// TokenArriver is the optional interface of protocols (unicast or broadcast)
// that support streaming token arrival: the engine calls Arrive at the start
// of round r — before Choose/BeginRound — when the arrival schedule injects
// token t at this node. The engine has already added t to the node's
// knowledge set (NodeEnv.Know), so the protocol may commit/send it in the
// same round; a protocol that keeps no state of its own besides K_v still
// implements Arrive, as a no-op, because implementing this interface is how
// it declares that it supports streaming. Executions whose arrival schedule
// injects tokens after round 0 require the protocol at every late token's
// source to implement this interface; the engine rejects the run otherwise.
type TokenArriver interface {
	Arrive(r int, t token.ID)
}

// BroadcastProtocol is a local-broadcast token-forwarding algorithm at one
// node. Choose commits the round's broadcast before the adversary wires the
// graph (nodes do not know their neighbors in advance in this mode); Deliver
// hands the node the tokens it learned from the round's broadcasts: each
// token it did not hold before, once, at the first neighbor (in increasing
// sender ID) that broadcast it. The engine has already added them to
// NodeEnv.Know. learned aliases an engine buffer, so it is read-only and
// must not be retained past the Deliver call.
type BroadcastProtocol interface {
	Choose(r int) token.ID
	Deliver(r int, learned []token.ID)
}

// BroadcastFactory builds the broadcast protocol instance for one node.
type BroadcastFactory func(env NodeEnv) BroadcastProtocol
