package sim

import (
	"fmt"

	"dynspread/internal/graph"
	"dynspread/internal/token"
)

// UnicastConfig configures one unicast execution.
type UnicastConfig struct {
	Assign    *token.Assignment
	Factory   Factory
	Adversary Adversary
	// MaxRounds caps the execution; 0 selects DefaultMaxRounds.
	MaxRounds int
	// Seed derives all node randomness (each node gets an independent
	// stream).
	Seed int64
	// CheckStability, when > 0, verifies that the adversary's sequence is
	// σ-edge-stable and fails the run otherwise. This guards experiments
	// whose theorems assume 3-edge stability.
	CheckStability int
	// ArrivalSchedule, when non-nil, streams the token supply: entry t is
	// the round token t is injected at its source (0 = present before round
	// 1, the classic instance). Len must equal K. nil reproduces the
	// all-tokens-at-round-0 semantics bit for bit. Late arrivals require the
	// protocol to implement TokenArriver.
	ArrivalSchedule []int
	// OnRound, if non-nil, observes every round after delivery: the round
	// number, the round's topology change against the previous round's
	// graph (the empty graph before round 1), the messages sent, and the
	// number of token-learning events the round produced. For tracing. The
	// diff d and the sent slice are only valid for the duration of the
	// callback.
	OnRound func(r int, d graph.Diff, sent []Message, learned int64)
	// Workspace, if non-nil, supplies reusable buffers (see Workspace).
	Workspace *Workspace
	// Recorder, if non-nil, attaches a flight recorder: the engine resets it
	// at the start of the execution and fills its ring with per-round
	// samples (see Recorder). Like Workspace, one recorder serves a worker's
	// sequential trials.
	Recorder *Recorder
}

// RunUnicast executes the configured protocol against the adversary until
// every node holds every token, MaxRounds elapses, or a model violation
// occurs (which returns an error). It is a thin wrapper plugging the unicast
// mode into the shared round engine.
func RunUnicast(cfg UnicastConfig) (*Result, error) {
	return runEngine(engineConfig{
		assign:         cfg.Assign,
		maxRounds:      cfg.MaxRounds,
		seed:           cfg.Seed,
		checkStability: cfg.CheckStability,
		ws:             cfg.Workspace,
		arrivals:       cfg.ArrivalSchedule,
		rec:            cfg.Recorder,
		adversary:      cfg.Adversary,
	}, &unicastMode{cfg: cfg})
}

// unicastMode is the unicast half of the engine: nodes learn their
// round-start neighbors, send point-to-point messages (validated against the
// graph, the bandwidth limit, and the token-forwarding rule), and receive
// their inbox sorted by (To, From) for determinism.
type unicastMode struct {
	cfg    UnicastConfig
	st     *engineState
	protos []Protocol
	// raw collects the round's sends in protocol order; sortBuf and lastSent
	// ping-pong between rounds: each round's delivery-sorted messages become
	// LastSent for the adversary's view, and the buffer holding the
	// round-before-last's sends (no longer referenced) is the next sort
	// target. Steady-state rounds therefore allocate nothing.
	raw      []Message
	sortBuf  []Message
	lastSent []Message
	// counts is the counting-sort bucket array (len n+1).
	counts []int
}

func (m *unicastMode) check() error {
	if m.cfg.Factory == nil {
		return fmt.Errorf("sim: nil factory")
	}
	return nil
}

func (m *unicastMode) bind(st *engineState) {
	m.st = st
	m.protos = m.cfg.Workspace.protocolsFor(st.n)
	m.raw, m.sortBuf, m.lastSent, m.counts = m.cfg.Workspace.unicastBuffers()
}

func (m *unicastMode) newProto(env NodeEnv) error {
	p := m.cfg.Factory(env)
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

	sent := m.raw[:0]
	// Bandwidth check (at most one message per directed edge per round):
	// validate pins msg.From == v and the loop visits senders in order, so
	// stamps[to] == v+1 marks "v already sent to to this round" — a flat
	// array probe where a map[{from,to}]bool used to hash on the hot path.
	stamps := m.cfg.Workspace.sendStampsFor(n)
	for v := 0; v < n; v++ {
		for _, raw := range m.protos[v].Send(r) {
			msg := raw
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
			//dynspread:allow hotpath -- amortized: appends into the workspace buffer retained across rounds; regrowth stops once per-round message counts plateau
			sent = append(sent, msg)
		}
	}
	m.raw = sent // keep any regrown capacity for the next round

	// Deliver in (To, From) order. The send loop visits senders in
	// increasing ID order and the bandwidth check makes (To, From) unique,
	// so a stable counting sort bucketed on To yields exactly the order the
	// old comparison sort produced — without its per-round allocations or
	// O(m log m) comparisons. counts[t] walks from bucket t's start offset
	// to its end offset during placement, so afterwards bucket t spans
	// [counts[t-1], counts[t]).
	sorted := m.sortBuf
	if cap(sorted) < len(sent) {
		// Grow with headroom: while per-round message counts are still
		// ramping up, exact-fit sizing would reallocate every round.
		sorted = make([]Message, len(sent), 2*len(sent))
	} else {
		sorted = sorted[:len(sent)]
	}
	counts := m.counts
	if cap(counts) < n+1 {
		counts = make([]int, n+1)
	} else {
		counts = counts[:n+1]
		clear(counts)
	}
	m.counts = counts
	for i := range sent {
		counts[sent[i].To+1]++
	}
	for t := 1; t <= n; t++ {
		counts[t] += counts[t-1]
	}
	for i := range sent {
		t := sent[i].To
		sorted[counts[t]] = sent[i]
		counts[t]++
	}

	var learned int64
	for i := range sorted {
		// Insert fuses the membership test with the set: one probe per
		// delivered token instead of Contains-then-Add.
		if t := sorted[i].carriedToken(); t != token.None && know[sorted[i].To].Insert(t) {
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
	m.cfg.Workspace.storeUnicastBuffers(m.raw, m.sortBuf, m.lastSent, m.counts)
	return learned, nil
}

//dynspread:hotpath
func (m *unicastMode) observe(r int, d graph.Diff, learned int64) {
	if m.cfg.OnRound != nil {
		m.cfg.OnRound(r, d, m.lastSent, learned)
	}
}
