package sim

import (
	"fmt"

	"dynspread/internal/graph"
	"dynspread/internal/token"
)

// BroadcastConfig configures one local-broadcast execution. The round
// structure follows Section 2: every node first commits the token it will
// locally broadcast (or ⊥); the strongly adaptive adversary then wires the
// round's connected graph with full knowledge of those choices; finally every
// broadcast is delivered to the chosen neighbors. Each local broadcast counts
// as one message (Definition 1.1).
type BroadcastConfig struct {
	Assign    *token.Assignment
	Factory   BroadcastFactory
	Adversary Adversary
	MaxRounds int
	Seed      int64
	// CheckStability, when > 0, verifies σ-edge-stability exactly as in
	// UnicastConfig.
	CheckStability int
	// ArrivalSchedule, when non-nil, streams the token supply exactly as in
	// UnicastConfig: entry t is the round token t is injected at its source
	// (0 = present before round 1); nil reproduces the classic semantics.
	ArrivalSchedule []int
	// OnRound, if non-nil, observes each round: the round's topology change
	// (as in UnicastConfig.OnRound), the committed choices, and the number of
	// token learnings that happened this round. The diff d and the choices
	// slice are only valid for the duration of the callback.
	OnRound func(r int, d graph.Diff, choices []token.ID, learned int64)
	// Workspace, if non-nil, supplies reusable buffers (see Workspace).
	Workspace *Workspace
	// Recorder, if non-nil, attaches a flight recorder (see Recorder).
	Recorder *Recorder
}

// RunBroadcast executes a local-broadcast protocol against a (possibly
// strongly adaptive) adversary until all nodes know all tokens or MaxRounds
// elapses. It is a thin wrapper plugging the broadcast mode into the shared
// round engine.
func RunBroadcast(cfg BroadcastConfig) (*Result, error) {
	return runEngine(engineConfig{
		assign:         cfg.Assign,
		maxRounds:      cfg.MaxRounds,
		seed:           cfg.Seed,
		checkStability: cfg.CheckStability,
		ws:             cfg.Workspace,
		arrivals:       cfg.ArrivalSchedule,
		rec:            cfg.Recorder,
		adversary:      cfg.Adversary,
	}, &broadcastMode{cfg: cfg})
}

// broadcastMode is the local-broadcast half of the engine: nodes commit one
// token (or ⊥) before the graph exists, the adversary wires the round with
// full knowledge of those commitments, and every broadcast reaches all of
// the sender's neighbors.
type broadcastMode struct {
	cfg     BroadcastConfig
	st      *engineState
	protos  []BroadcastProtocol
	choices []token.ID
	// learned[v] lists the tokens node v learned this round, in the order
	// exchange inserted them into K_v.
	learned [][]token.ID
}

func (m *broadcastMode) check() error {
	if m.cfg.Factory == nil {
		return fmt.Errorf("sim: nil factory")
	}
	return nil
}

func (m *broadcastMode) bind(st *engineState) {
	m.st = st
	m.protos = m.cfg.Workspace.broadcastProtocolsFor(st.n)
	m.choices = m.cfg.Workspace.choicesFor(st.n)
	st.view.Choices = m.choices
	m.learned = m.cfg.Workspace.learnedFor(st.n)
}

func (m *broadcastMode) newProto(env NodeEnv) error {
	p := m.cfg.Factory(env)
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
// increasing sender order.
//
//dynspread:hotpath
func (m *broadcastMode) exchange(r int, g *graph.Graph) (int64, error) {
	n := m.st.n
	know, metrics := m.st.know, &m.st.metrics
	for v := range m.learned {
		m.learned[v] = m.learned[v][:0]
	}
	var learned int64
	for v := 0; v < n; v++ {
		c := m.choices[v]
		if c == token.None {
			continue
		}
		for _, u := range g.NeighborsShared(v) {
			if know[u].Insert(c) {
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

//dynspread:hotpath
func (m *broadcastMode) observe(r int, d graph.Diff, learned int64) {
	if m.cfg.OnRound != nil {
		m.cfg.OnRound(r, d, m.choices, learned)
	}
}
