package sim

import (
	"strings"
	"testing"

	"dynspread/internal/bitset"
	"dynspread/internal/graph"
	"dynspread/internal/token"
)

// staticAdv is a minimal in-package test adversary serving a fixed graph in
// either mode.
type staticAdv struct{ g *graph.Graph }

func (a staticAdv) Name() string                 { return "static-test" }
func (a staticAdv) NextGraph(*View) *graph.Graph { return a.g.Clone() }

// pushProto is a simple correct unicast protocol used to exercise the
// engine: each round it sends to each neighbor the lowest-ID known token it
// has not yet sent to that neighbor.
type pushProto struct {
	env  NodeEnv
	know *bitset.Set
	sent map[graph.NodeID]*bitset.Set
	nbrs []graph.NodeID
}

func newPushProto(env NodeEnv) Protocol {
	p := &pushProto{
		env:  env,
		know: bitset.New(env.K),
		sent: make(map[graph.NodeID]*bitset.Set),
	}
	for _, t := range env.Initial {
		p.know.Add(t)
	}
	return p
}

func (p *pushProto) BeginRound(r int, neighbors []graph.NodeID) { p.nbrs = neighbors }

func (p *pushProto) Send(r int) []Message {
	var out []Message
	for _, u := range p.nbrs {
		s := p.sent[u]
		if s == nil {
			s = bitset.New(p.env.K)
			p.sent[u] = s
		}
		for _, t := range p.know.Elements() {
			if !s.Contains(t) {
				s.Add(t)
				out = append(out, TokenMsg(p.env.ID, u, TokenPayload{ID: t}))
				break
			}
		}
	}
	return out
}

func (p *pushProto) Deliver(r int, in []Message) {
	for _, m := range in {
		if m.Has(KindToken) {
			p.know.Add(m.Token.ID)
		}
	}
}

func singleSource(t *testing.T, n, k, src int) *token.Assignment {
	t.Helper()
	a, err := token.SingleSource(n, k, src)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func gossip(t *testing.T, n int) *token.Assignment {
	t.Helper()
	a, err := token.Gossip(n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRunUnicastCompletesOnStaticGraph(t *testing.T) {
	assign := singleSource(t, 8, 5, 0)
	res, err := RunUnicast(UnicastConfig{
		Assign:    assign,
		Factory:   newPushProto,
		Adversary: staticAdv{graph.Path(8)},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if res.Metrics.Learnings != assign.RequiredLearnings() {
		t.Fatalf("Learnings = %d, want %d", res.Metrics.Learnings, assign.RequiredLearnings())
	}
	// Static path: 7 insertions in round 1, none later, no removals.
	if res.Metrics.TC != 7 || res.Metrics.Removals != 0 {
		t.Fatalf("TC = %d, Removals = %d", res.Metrics.TC, res.Metrics.Removals)
	}
	if res.Metrics.Messages == 0 || res.Metrics.TokenPayloads != res.Metrics.Messages {
		t.Fatalf("message accounting: %+v", res.Metrics)
	}
	if res.Metrics.Rounds != res.Rounds {
		t.Fatal("metrics rounds mismatch")
	}
}

func TestRunUnicastGossipAllSources(t *testing.T) {
	assign := gossip(t, 6)
	res, err := RunUnicast(UnicastConfig{
		Assign:    assign,
		Factory:   newPushProto,
		Adversary: staticAdv{graph.Cycle(6)},
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if res.Metrics.Learnings != 6*5 {
		t.Fatalf("Learnings = %d", res.Metrics.Learnings)
	}
}

func TestRunUnicastMaxRounds(t *testing.T) {
	// A silent protocol never completes; MaxRounds must stop the run
	// without error.
	assign := singleSource(t, 4, 2, 0)
	res, err := RunUnicast(UnicastConfig{
		Assign:    assign,
		Factory:   func(env NodeEnv) Protocol { return silentProto{} },
		Adversary: staticAdv{graph.Path(4)},
		MaxRounds: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.Rounds != 17 {
		t.Fatalf("res = %+v", res)
	}
}

type silentProto struct{}

func (silentProto) BeginRound(int, []graph.NodeID) {}
func (silentProto) Send(int) []Message             { return nil }
func (silentProto) Deliver(int, []Message)         {}

// misbehaving protocols for violation tests

type badProto struct {
	silentProto
	msg func() []Message
}

func (b badProto) Send(int) []Message { return b.msg() }

func runBad(t *testing.T, msg func() []Message) error {
	t.Helper()
	assign := singleSource(t, 4, 2, 0)
	_, err := RunUnicast(UnicastConfig{
		Assign: assign,
		Factory: func(env NodeEnv) Protocol {
			if env.ID == 0 {
				return badProto{msg: msg}
			}
			return silentProto{}
		},
		Adversary: staticAdv{graph.Path(4)},
		MaxRounds: 5,
	})
	if err == nil {
		t.Fatal("expected violation error")
	}
	return err
}

func TestUnicastViolations(t *testing.T) {
	cases := []struct {
		name string
		msg  func() []Message
		want string
	}{
		{"forged sender", func() []Message {
			return []Message{{From: 2, To: 1, Kinds: KindRequest, Request: RequestPayload{Owner: 0, Index: 1}}}
		}, "forged"},
		{"self send", func() []Message {
			return []Message{{From: 0, To: 0, Kinds: KindRequest, Request: RequestPayload{Owner: 0, Index: 1}}}
		}, "invalid destination"},
		{"empty message", func() []Message {
			return []Message{{From: 0, To: 1}}
		}, "empty"},
		{"two tokens", func() []Message {
			m := WalkMsg(0, 1, WalkPayload{ID: 1})
			m.SetToken(TokenPayload{ID: 0})
			return []Message{m}
		}, "two tokens"},
		{"unknown payload kind", func() []Message {
			return []Message{{From: 0, To: 1, Kinds: 1 << 7}}
		}, "unknown payload kind"},
		{"non-neighbor", func() []Message {
			return []Message{TokenMsg(0, 3, TokenPayload{ID: 0})}
		}, "non-neighbor"},
		{"bandwidth", func() []Message {
			return []Message{
				TokenMsg(0, 1, TokenPayload{ID: 0}),
				Message{From: 0, To: 1, Kinds: KindRequest, Request: RequestPayload{Owner: 0, Index: 1}},
			}
		}, "bandwidth"},
		{"invalid token id", func() []Message {
			return []Message{TokenMsg(0, 1, TokenPayload{ID: 99})}
		}, "invalid token"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := runBad(t, c.msg)
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestUnicastTokenForwardingEnforced(t *testing.T) {
	// Node 1 (no tokens) tries to send token 0.
	assign := singleSource(t, 4, 2, 0)
	_, err := RunUnicast(UnicastConfig{
		Assign: assign,
		Factory: func(env NodeEnv) Protocol {
			if env.ID == 1 {
				return badProto{msg: func() []Message {
					return []Message{TokenMsg(1, 0, TokenPayload{ID: 0})}
				}}
			}
			return silentProto{}
		},
		Adversary: staticAdv{graph.Path(4)},
		MaxRounds: 5,
	})
	if err == nil || !strings.Contains(err.Error(), "token-forwarding") {
		t.Fatalf("err = %v", err)
	}
}

type disconnectingAdv struct{}

func (disconnectingAdv) Name() string { return "disconnecting" }
func (disconnectingAdv) NextGraph(v *View) *graph.Graph {
	return graph.New(v.N) // empty, disconnected
}

func TestUnicastRejectsDisconnectedAdversary(t *testing.T) {
	assign := singleSource(t, 4, 2, 0)
	_, err := RunUnicast(UnicastConfig{
		Assign:    assign,
		Factory:   func(env NodeEnv) Protocol { return silentProto{} },
		Adversary: disconnectingAdv{},
		MaxRounds: 5,
	})
	if err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnicastStabilityCheck(t *testing.T) {
	// An adversary that flips an edge every round violates σ=3.
	assign := singleSource(t, 4, 2, 0)
	flip := flipAdv{}
	_, err := RunUnicast(UnicastConfig{
		Assign:         assign,
		Factory:        func(env NodeEnv) Protocol { return silentProto{} },
		Adversary:      &flip,
		MaxRounds:      10,
		CheckStability: 3,
	})
	if err == nil || !strings.Contains(err.Error(), "stability") {
		t.Fatalf("err = %v", err)
	}
}

type flipAdv struct{ r int }

func (a *flipAdv) Name() string { return "flip" }
func (a *flipAdv) NextGraph(v *View) *graph.Graph {
	a.r++
	g := graph.Path(v.N)
	if a.r%2 == 0 {
		g.AddEdge(0, v.N-1)
	}
	return g
}

func TestUnicastConfigErrors(t *testing.T) {
	assign := singleSource(t, 4, 2, 0)
	if _, err := RunUnicast(UnicastConfig{}); err == nil {
		t.Fatal("nil everything accepted")
	}
	if _, err := RunUnicast(UnicastConfig{Assign: assign}); err == nil {
		t.Fatal("nil factory accepted")
	}
	if _, err := RunUnicast(UnicastConfig{Assign: assign, Factory: newPushProto}); err == nil {
		t.Fatal("nil adversary accepted")
	}
	small := singleSource(t, 1, 1, 0)
	if _, err := RunUnicast(UnicastConfig{Assign: small, Factory: newPushProto, Adversary: staticAdv{graph.New(1)}}); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestUnicastCompetitiveAccounting(t *testing.T) {
	assign := singleSource(t, 6, 4, 0)
	res, err := RunUnicast(UnicastConfig{
		Assign:    assign,
		Factory:   newPushProto,
		Adversary: staticAdv{graph.Cycle(6)},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if got := m.Competitive(1); got != float64(m.Messages)-float64(m.TC) {
		t.Fatalf("Competitive(1) = %g", got)
	}
	if m.AmortizedPerToken(4) != float64(m.Messages)/4 {
		t.Fatal("AmortizedPerToken wrong")
	}
	if m.AmortizedPerToken(0) != 0 {
		t.Fatal("AmortizedPerToken(0) != 0")
	}
}

func TestUnicastOnRoundHook(t *testing.T) {
	assign := singleSource(t, 5, 3, 0)
	rounds := 0
	var sentTotal int
	var inserted, removed int64
	res, err := RunUnicast(UnicastConfig{
		Assign:    assign,
		Factory:   newPushProto,
		Adversary: &flipAdv{},
		OnRound: func(r int, d graph.Diff, sent []Message, learned int64) {
			rounds++
			sentTotal += len(sent)
			inserted += int64(len(d.Inserted))
			removed += int64(len(d.Removed))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != res.Rounds {
		t.Fatalf("hook rounds = %d, want %d", rounds, res.Rounds)
	}
	if int64(sentTotal) != res.Metrics.Messages {
		t.Fatalf("hook messages = %d, want %d", sentTotal, res.Metrics.Messages)
	}
	// The hook sees the same per-round diff the engine charges.
	if inserted != res.Metrics.TC || removed != res.Metrics.Removals {
		t.Fatalf("hook diffs insert %d / remove %d, metrics TC %d / removals %d",
			inserted, removed, res.Metrics.TC, res.Metrics.Removals)
	}
	if removed == 0 {
		t.Fatal("flip adversary removed no edge; the removal sum went untested")
	}
}

// floodBProto is a minimal broadcast protocol: broadcast the known token
// that has been broadcast the fewest times.
type floodBProto struct {
	env   NodeEnv
	know  []token.ID
	seen  map[token.ID]bool
	count map[token.ID]int
}

func newFloodB(env NodeEnv) BroadcastProtocol {
	p := &floodBProto{env: env, seen: make(map[token.ID]bool), count: make(map[token.ID]int)}
	for _, t := range env.Initial {
		p.seen[t] = true
		p.know = append(p.know, t)
	}
	return p
}

func (p *floodBProto) Choose(r int) token.ID {
	best := token.None
	for _, t := range p.know {
		if best == token.None || p.count[t] < p.count[best] {
			best = t
		}
	}
	if best != token.None {
		p.count[best]++
	}
	return best
}

func (p *floodBProto) Deliver(r int, learned []token.ID) {
	for _, t := range learned {
		if !p.seen[t] {
			p.seen[t] = true
			p.know = append(p.know, t)
		}
	}
}

func TestRunBroadcastCompletes(t *testing.T) {
	assign := gossip(t, 8)
	res, err := RunBroadcast(BroadcastConfig{
		Assign:    assign,
		Factory:   newFloodB,
		Adversary: staticAdv{graph.Cycle(8)},
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if res.Metrics.Broadcasts != res.Metrics.Messages {
		t.Fatal("broadcast accounting mismatch")
	}
	if res.Metrics.Learnings != 8*7 {
		t.Fatalf("Learnings = %d", res.Metrics.Learnings)
	}
}

func TestRunBroadcastTokenForwarding(t *testing.T) {
	assign := singleSource(t, 4, 2, 0)
	_, err := RunBroadcast(BroadcastConfig{
		Assign: assign,
		Factory: func(env NodeEnv) BroadcastProtocol {
			return choiceProto{c: 0} // nodes != 0 don't hold token 0
		},
		Adversary: staticAdv{graph.Path(4)},
		MaxRounds: 3,
	})
	if err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Fatalf("err = %v", err)
	}
}

type choiceProto struct{ c token.ID }

func (p choiceProto) Choose(int) token.ID     { return p.c }
func (p choiceProto) Deliver(int, []token.ID) {}

func TestRunBroadcastSilentHitsMaxRounds(t *testing.T) {
	assign := singleSource(t, 4, 2, 0)
	res, err := RunBroadcast(BroadcastConfig{
		Assign:    assign,
		Factory:   func(env NodeEnv) BroadcastProtocol { return choiceProto{c: token.None} },
		Adversary: staticAdv{graph.Path(4)},
		MaxRounds: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.Rounds != 9 || res.Metrics.Broadcasts != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestBroadcastOnRoundLearningCount(t *testing.T) {
	assign := gossip(t, 6)
	var total int64
	res, err := RunBroadcast(BroadcastConfig{
		Assign:    assign,
		Factory:   newFloodB,
		Adversary: staticAdv{graph.Complete(6)},
		OnRound: func(r int, _ graph.Diff, _ []token.ID, learned int64) {
			total += learned
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != res.Metrics.Learnings {
		t.Fatalf("hook learnings %d != metrics %d", total, res.Metrics.Learnings)
	}
}

func TestViewKnows(t *testing.T) {
	assign := singleSource(t, 4, 3, 2)
	var checked bool
	probe := probeAdv{g: graph.Path(4), check: func(v *View) {
		if !checked {
			checked = true
			if !v.Knows(2, 0) || v.Knows(0, 0) || v.Knows(-1, 0) || v.Knows(99, 0) {
				t.Error("Knows wrong")
			}
			if v.know[2].Count() != 3 || v.know[0].Count() != 0 {
				t.Error("knowledge counts wrong")
			}
			other := bitset.New(3)
			other.Add(1)
			if v.KnowledgeUnionCount(0, other) != 1 || v.KnowledgeUnionCount(2, other) != 3 {
				t.Error("KnowledgeUnionCount wrong")
			}
			if v.KnowledgeUnionCount(-1, other) != -1 {
				t.Error("KnowledgeUnionCount out of range")
			}
		}
	}}
	if _, err := RunUnicast(UnicastConfig{
		Assign:    assign,
		Factory:   func(env NodeEnv) Protocol { return silentProto{} },
		Adversary: probe,
		MaxRounds: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("probe never ran")
	}
}

type probeAdv struct {
	g     *graph.Graph
	check func(*View)
}

func (a probeAdv) Name() string { return "probe" }
func (a probeAdv) NextGraph(v *View) *graph.Graph {
	a.check(v)
	return a.g.Clone()
}

func TestBroadcastViewNumBroadcasters(t *testing.T) {
	v := &View{Choices: []token.ID{token.None, 1, 2, token.None}}
	if v.NumBroadcasters() != 2 {
		t.Fatalf("NumBroadcasters = %d", v.NumBroadcasters())
	}
}

func TestDefaultMaxRounds(t *testing.T) {
	if DefaultMaxRounds(0, 0) < 1000 {
		t.Fatal("floor not applied")
	}
	if DefaultMaxRounds(10, 10) <= 10*10 {
		t.Fatal("cap too small")
	}
}
