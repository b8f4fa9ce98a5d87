package sim

import (
	"fmt"

	"dynspread/internal/graph"
	"dynspread/internal/token"
)

// unicastMode is the unicast half of the engine: nodes learn their
// round-start neighbors, send point-to-point messages (validated against the
// graph, the bandwidth limit, and the token-forwarding rule), and receive
// their inbox sorted by (To, From) for determinism.
type unicastMode struct {
	factory Factory
	ws      *Workspace
	st      *engineState
	protos  []Protocol
	// sends[v] is the slice node v's Send returned this round, read where
	// the protocol left it (see Protocol). sortBuf and lastSent ping-pong
	// between rounds: each round's delivery-sorted messages become
	// LastSent for the adversary's view, and the buffer holding the
	// round-before-last's sends (no longer referenced) is the next sort
	// target. Steady-state rounds therefore allocate nothing.
	sends    [][]Message
	sortBuf  []Message
	lastSent []Message
	// counts holds the counting-sort buckets, n+1 of them in a round.
	counts []int
}

func (m *unicastMode) bind(st *engineState) {
	m.st = st
	m.protos = cleared(&m.ws.protosU, st.n)
	m.sends = cleared(&m.ws.sends, st.n)
	m.sortBuf, m.lastSent, m.counts = m.ws.sendA[:0], m.ws.sendB[:0], m.ws.counts[:0]
}

func (m *unicastMode) newProto(env NodeEnv) error {
	p := m.factory(env)
	if p == nil {
		return fmt.Errorf("sim: factory returned nil protocol for node %d", env.ID)
	}
	m.protos[env.ID] = p
	return nil
}

func (m *unicastMode) arriver(v graph.NodeID) TokenArriver {
	a, _ := m.protos[v].(TokenArriver)
	return a
}

//dynspread:hotpath
func (m *unicastMode) commit(int) error { return nil }

//dynspread:hotpath
func (m *unicastMode) exchange(r int, g *graph.Graph) (int64, error) {
	n, k := m.st.n, m.st.k
	know, metrics := m.st.know, &m.st.metrics
	// Paranoia check on the aliasing introduced by zero-copy delivery:
	// inboxes are subslices of the buffer the adversary reads as LastSent,
	// so a protocol that mutates its inbox (e.g. re-sorts it, as the core
	// algorithms did before the engine's order became a pinned contract)
	// would silently corrupt the adversary's view. The strict (To, From)
	// order is an invariant any reorder breaks; verifying it costs one
	// allocation-free compare per message and turns silent divergence into
	// a hard error. In-place field edits that preserve the order remain
	// undetectable without copying, which would defeat the zero-copy path.
	for i := 1; i < len(m.lastSent); i++ {
		a, b := &m.lastSent[i-1], &m.lastSent[i]
		if a.To > b.To || (a.To == b.To && a.From >= b.From) {
			return 0, fmt.Errorf("sim: round %d: a protocol mutated its inbox in round %d (delivery order broken at message %d); inboxes are read-only", r, r-1, i)
		}
	}
	for v := 0; v < n; v++ {
		m.protos[v].BeginRound(r, g.NeighborsShared(v))
	}

	// The counting sort's buckets are counted as the sends are validated.
	counts := cleared(&m.counts, n+1)
	total := 0
	// Bandwidth check (at most one message per directed edge per round):
	// validate pins msg.From == v and the loop visits senders in order, so
	// stamps[to] == v+1 marks "v already sent to to this round" — a flat
	// array probe where a map[{from,to}]bool used to hash on the hot path.
	stamps := cleared(&m.ws.sendStamps, n)
	for v := 0; v < n; v++ {
		out := m.protos[v].Send(r)
		// Each message is checked and counted where Send left it; the sort
		// below is the one copy it makes.
		for i := range out {
			msg := &out[i]
			if err := msg.validate(v, n); err != nil {
				return 0, err
			}
			if !g.HasEdge(msg.From, msg.To) {
				return 0, fmt.Errorf("sim: round %d: node %d sent to non-neighbor %d", r, v, msg.To)
			}
			if stamps[msg.To] == v+1 {
				return 0, fmt.Errorf("sim: round %d: node %d sent two messages to %d (bandwidth violation)", r, v, msg.To)
			}
			stamps[msg.To] = v + 1
			if t := msg.carriedToken(); t != token.None {
				if t < 0 || t >= k {
					return 0, fmt.Errorf("sim: round %d: node %d sent invalid token %d", r, v, t)
				}
				if !know[v].Contains(t) {
					return 0, fmt.Errorf("sim: round %d: node %d sent token %d it does not hold (token-forwarding violation)", r, v, t)
				}
			}
			metrics.Messages++
			kinds := msg.Kinds
			if kinds&KindToken != 0 {
				metrics.TokenPayloads++
			}
			if kinds&KindWalk != 0 {
				metrics.WalkPayloads++
			}
			if kinds&KindRequest != 0 {
				metrics.RequestPayloads++
			}
			if kinds&KindCompleteness != 0 {
				metrics.CompletenessPayloads++
			}
			if kinds&KindControl != 0 {
				metrics.ControlPayloads++
			}
			counts[msg.To+1]++
		}
		m.sends[v] = out
		total += len(out)
	}

	// Deliver in (To, From) order. The send loop visits senders in
	// increasing ID order and the bandwidth check makes (To, From) unique,
	// so a stable counting sort bucketed on To yields exactly the order the
	// old comparison sort produced — without its per-round allocations or
	// O(m log m) comparisons. counts[t] walks from bucket t's start offset
	// to its end offset during placement, so afterwards bucket t spans
	// [counts[t-1], counts[t]).
	sorted := m.sortBuf
	if cap(sorted) < total {
		// Grow with headroom: while per-round message counts are still
		// ramping up, exact-fit sizing would reallocate every round.
		sorted = make([]Message, total, 2*total)
	} else {
		sorted = sorted[:total]
	}
	for t := 1; t <= n; t++ {
		counts[t] += counts[t-1]
	}
	for _, out := range m.sends {
		for i := range out {
			t := out[i].To
			sorted[counts[t]] = out[i]
			counts[t]++
		}
	}

	var learned int64
	for i := range sorted {
		// Insert fuses the membership test with the set: one probe per
		// delivered token instead of Contains-then-Add.
		if t := sorted[i].carriedToken(); t != token.None && m.st.learn(sorted[i].To, t) {
			metrics.Learnings++
			learned++
		}
	}
	start := 0
	for v := 0; v < n; v++ {
		end := counts[v]
		// Full slice expression: a protocol that appends to its inbox gets a
		// fresh allocation instead of silently overwriting the neighboring
		// bucket (and next round's LastSent).
		m.protos[v].Deliver(r, sorted[start:end:end])
		start = end
	}

	// Ping-pong: this round's sorted sends become LastSent; the buffer
	// holding the round-before-last's sends is the next sort target.
	m.sortBuf, m.lastSent = m.lastSent[:0], sorted
	m.st.view.LastSent = sorted
	m.ws.sendA, m.ws.sendB, m.ws.counts = m.sortBuf, m.lastSent, m.counts
	return learned, nil
}
