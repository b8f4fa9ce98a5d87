// Package sim implements the synchronous dynamic-network execution engine of
// the paper's model (Section 1.3): a fixed node set, per-round communication
// graphs chosen by an adversary (always connected), and two communication
// modes — local broadcast and unicast — with message accounting per
// Definition 1.1 and topological-change accounting TC(E) per Definition 1.3.
//
// The engine enforces the model's constraints on the algorithms it runs:
// at most one message per directed edge per round, at most one token per
// message (the paper's bandwidth restriction), and the token-forwarding rule
// (a node may only send tokens it currently holds).
package sim

import (
	"fmt"

	"dynspread/internal/graph"
	"dynspread/internal/token"
)

// CompletenessAnn announces that the sender is complete with respect to
// Source: it holds all tokens that originated at Source. Count carries that
// source's token count k_x (O(log nk) bits, within the model's message
// budget) so that receivers holding none of x's tokens can still form
// indexed requests. In the single-source algorithm Source is the unique
// source node and Count = k.
type CompletenessAnn struct {
	Source graph.NodeID
	Count  int
}

// TokenPayload carries one token. Owner/Index identify the token in the
// sender's labeling (the paper's ⟨ID_x, i⟩); Count is the total number of
// tokens owned by Owner, letting receivers detect per-source completeness.
// ID is the token itself (its dense global identity).
type TokenPayload struct {
	ID    token.ID
	Owner graph.NodeID
	Index int
	Count int
}

// RequestPayload asks the receiver for the Index-th token of Owner.
type RequestPayload struct {
	Owner graph.NodeID
	Index int
}

// WalkPayload carries one token taking a random-walk step (Algorithm 2,
// phase 1). Unlike TokenPayload it carries no per-source labeling: the walk
// only relocates the token.
type WalkPayload struct {
	ID token.ID
}

// ControlKind enumerates the O(log n)-bit control messages used by protocol
// machinery that is neither a token, a request, nor a completeness
// announcement (e.g. spanning-tree construction in the static baseline).
type ControlKind int

// Control kinds.
const (
	// CtrlTreeInvite invites the receiver to join the sender's BFS tree.
	CtrlTreeInvite ControlKind = iota + 1
	// CtrlTreeAccept tells the sender's chosen parent it gained a child.
	CtrlTreeAccept
)

// ControlPayload is a constant-size control message.
type ControlPayload struct {
	Kind ControlKind
}

// PayloadKind is a bitmask recording which payload fields of a Message are
// set. Payloads are inline values rather than pointers so the round hot path
// never heap-allocates per message; the mask is the authoritative presence
// flag (a zero-valued inline field with its bit set is a legal payload).
type PayloadKind uint8

// Payload kind bits.
const (
	KindToken PayloadKind = 1 << iota
	KindRequest
	KindCompleteness
	KindWalk
	KindControl

	kindAll = KindToken | KindRequest | KindCompleteness | KindWalk | KindControl
)

// Message is one unicast message from From to To. Any combination of payload
// kinds may be set, but at most one of Token/Walk (one token per message)
// and at least one kind must be present. A message counts as exactly one
// unit of message complexity regardless of which payloads it carries (the
// model allows a constant number of tokens plus O(log n) bits).
//
// Payload fields are meaningful only when the matching Kinds bit is set;
// construct messages through the *Msg constructors or the Set* methods,
// which keep field and mask consistent.
type Message struct {
	From, To graph.NodeID
	Kinds    PayloadKind

	Token        TokenPayload
	Request      RequestPayload
	Completeness CompletenessAnn
	Walk         WalkPayload
	Control      ControlPayload
}

// TokenMsg returns a message carrying exactly one token payload.
func TokenMsg(from, to graph.NodeID, p TokenPayload) Message {
	return Message{From: from, To: to, Kinds: KindToken, Token: p}
}

// WalkMsg returns a message carrying exactly one random-walk step.
func WalkMsg(from, to graph.NodeID, p WalkPayload) Message {
	return Message{From: from, To: to, Kinds: KindWalk, Walk: p}
}

// ControlMsg returns a message carrying exactly one control payload.
func ControlMsg(from, to graph.NodeID, p ControlPayload) Message {
	return Message{From: from, To: to, Kinds: KindControl, Control: p}
}

// Has reports whether every kind in k is present.
func (m *Message) Has(k PayloadKind) bool { return m.Kinds&k == k }

// SetToken attaches a token payload.
func (m *Message) SetToken(p TokenPayload) { m.Token = p; m.Kinds |= KindToken }

// SetRequest attaches a request payload.
func (m *Message) SetRequest(p RequestPayload) { m.Request = p; m.Kinds |= KindRequest }

// SetCompleteness attaches a completeness announcement.
func (m *Message) SetCompleteness(p CompletenessAnn) {
	m.Completeness = p
	m.Kinds |= KindCompleteness
}

// Empty reports whether the message has no payload.
func (m *Message) Empty() bool { return m.Kinds == 0 }

// carriedToken returns the token the message carries, or token.None.
func (m *Message) carriedToken() token.ID {
	switch {
	case m.Kinds&KindToken != 0:
		return m.Token.ID
	case m.Kinds&KindWalk != 0:
		return m.Walk.ID
	default:
		return token.None
	}
}

// validate checks the static well-formedness of a message sent by from.
func (m *Message) validate(from graph.NodeID, n int) error {
	if m.From != from {
		return fmt.Errorf("sim: node %d forged sender %d", from, m.From)
	}
	if m.To < 0 || m.To >= n || m.To == from {
		return fmt.Errorf("sim: node %d sent to invalid destination %d", from, m.To)
	}
	if m.Empty() {
		return fmt.Errorf("sim: node %d sent empty message", from)
	}
	if m.Kinds&^kindAll != 0 {
		return fmt.Errorf("sim: node %d sent unknown payload kind %#x", from, m.Kinds&^kindAll)
	}
	if m.Kinds&(KindToken|KindWalk) == KindToken|KindWalk {
		return fmt.Errorf("sim: node %d sent two tokens in one message", from)
	}
	return nil
}
