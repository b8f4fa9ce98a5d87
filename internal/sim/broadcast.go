package sim

import (
	"fmt"

	"dynspread/internal/graph"
	"dynspread/internal/token"
)

// broadcastMode is the local-broadcast half of the engine: nodes commit one
// token (or ⊥) before the graph exists, the adversary wires the round with
// full knowledge of those commitments, and every broadcast reaches all of
// the sender's neighbors.
type broadcastMode struct {
	factory BroadcastFactory
	ws      *Workspace
	st      *engineState
	protos  []BroadcastProtocol
	choices []token.ID
	// learned[v] lists the tokens node v learned this round, in the order
	// exchange inserted them into K_v.
	learned [][]token.ID
}

func (m *broadcastMode) bind(st *engineState) {
	m.st = st
	m.protos = cleared(&m.ws.protosB, st.n)
	m.choices = cleared(&m.ws.choices, st.n)
	st.view.Choices = m.choices
	m.learned = m.ws.learnedFor(st.n)
}

func (m *broadcastMode) newProto(env NodeEnv) error {
	p := m.factory(env)
	if p == nil {
		return fmt.Errorf("sim: factory returned nil protocol for node %d", env.ID)
	}
	m.protos[env.ID] = p
	return nil
}

func (m *broadcastMode) arriver(v graph.NodeID) TokenArriver {
	a, _ := m.protos[v].(TokenArriver)
	return a
}

// commit lets every node commit its broadcast (token-forwarding checked)
// before the adversary sees anything of the round; the view's Choices
// aliases m.choices, so the adversary then sees the commitments (the
// paper's strongly adaptive adversary).
//
//dynspread:hotpath
func (m *broadcastMode) commit(r int) error {
	k := m.st.k
	know, metrics := m.st.know, &m.st.metrics
	for v := 0; v < m.st.n; v++ {
		c := m.protos[v].Choose(r)
		if c != token.None {
			if c < 0 || c >= k {
				return fmt.Errorf("sim: round %d: node %d broadcast invalid token %d", r, v, c)
			}
			if !know[v].Contains(c) {
				return fmt.Errorf("sim: round %d: node %d broadcast token %d it does not hold", r, v, c)
			}
			metrics.Broadcasts++
			metrics.Messages++
		}
		m.choices[v] = c
	}
	return nil
}

// exchange delivers every committed broadcast to the round's neighbors and
// hands each node the tokens it learned. Senders are visited in increasing
// ID, so a node's list holds each new token once, at its first delivery, in
// increasing sender order. A token every node already holds is not
// delivered at all: each of its deliveries would teach no one, so skipping
// them changes no learned list and no counter (commit has already counted
// the broadcast).
//
//dynspread:hotpath
func (m *broadcastMode) exchange(r int, g *graph.Graph) (int64, error) {
	st := m.st
	n, holders, metrics := st.n, st.holders, &st.metrics
	for v := range m.learned {
		m.learned[v] = m.learned[v][:0]
	}
	var learned int64
	for v := 0; v < n; v++ {
		c := m.choices[v]
		if c == token.None || holders[c] == n {
			continue
		}
		for _, u := range g.NeighborsShared(v) {
			if st.learn(u, c) {
				metrics.Learnings++
				learned++
				//dynspread:allow hotpath -- amortized: per-node learned buffers are truncated and reused across rounds; capacity stabilizes after the first few rounds
				m.learned[u] = append(m.learned[u], c)
			}
		}
	}
	for v := 0; v < n; v++ {
		m.protos[v].Deliver(r, m.learned[v])
	}
	return learned, nil
}
