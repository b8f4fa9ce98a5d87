package sim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dynspread/internal/graph"
	"dynspread/internal/token"
)

// recordProto captures every inbox it is handed (copying, per the Deliver
// contract) so tests can pin the engine's delivery-order invariant.
type recordProto struct {
	env     NodeEnv
	nbrs    []graph.NodeID
	inboxes [][]Message
}

func (p *recordProto) BeginRound(_ int, nbrs []graph.NodeID) { p.nbrs = nbrs }

// Send makes every node message every neighbor every round (a request is the
// cheapest always-legal payload), so receivers see many-sender inboxes.
func (p *recordProto) Send(_ int) []Message {
	out := make([]Message, 0, len(p.nbrs))
	for _, u := range p.nbrs {
		out = append(out, Message{From: p.env.ID, To: u, Kinds: KindRequest, Request: RequestPayload{Owner: 0, Index: 1}})
	}
	return out
}

func (p *recordProto) Deliver(_ int, in []Message) {
	p.inboxes = append(p.inboxes, append([]Message(nil), in...))
}

// TestDeliveryOrderInvariant pins the engine's (To, From) delivery order:
// every node's inbox arrives sorted by strictly increasing sender ID and
// contains exactly the messages addressed to it. The core algorithms rely on
// this instead of re-sorting their inboxes every round, so a regression here
// would silently change their behavior.
func TestDeliveryOrderInvariant(t *testing.T) {
	const n = 7
	assign, err := token.SingleSource(n, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]*recordProto, n)
	_, err = Run(Config{
		Assign: assign,
		Unicast: func(env NodeEnv) Protocol {
			p := &recordProto{env: env}
			protos[env.ID] = p
			return p
		},
		// A star: the center's inbox collects every leaf each round, the
		// maximal multi-sender case.
		Adversary: staticAdv{graph.Star(n)},
		MaxRounds: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range protos {
		if len(p.inboxes) != 4 {
			t.Fatalf("node %d saw %d Deliver calls, want 4", v, len(p.inboxes))
		}
		for r, in := range p.inboxes {
			for i := range in {
				if in[i].To != v {
					t.Fatalf("node %d round %d: delivered message addressed to %d", v, r+1, in[i].To)
				}
				if i > 0 && in[i-1].From >= in[i].From {
					t.Fatalf("node %d round %d: inbox not strictly From-sorted: %d then %d",
						v, r+1, in[i-1].From, in[i].From)
				}
			}
		}
	}
	// The star center must actually have exercised the multi-sender case.
	if got := len(protos[0].inboxes[0]); got != n-1 {
		t.Fatalf("star center round-1 inbox has %d messages, want %d", got, n-1)
	}
}

// mutateProto violates the Deliver contract: it reverses its inbox in
// place, the way a protocol re-sorting for its own order would.
type mutateProto struct{ recordProto }

func (p *mutateProto) Deliver(_ int, in []Message) {
	for i, j := 0, len(in)-1; i < j; i, j = i+1, j-1 {
		in[i], in[j] = in[j], in[i]
	}
}

// TestInboxMutationDetected: inboxes alias the buffer the adversary reads
// as LastSent, so the engine must fail loudly — not silently diverge — when
// a protocol mutates its inbox.
func TestInboxMutationDetected(t *testing.T) {
	const n = 6
	assign, err := token.SingleSource(n, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{
		Assign: assign,
		Unicast: func(env NodeEnv) Protocol {
			return &mutateProto{recordProto{env: env}}
		},
		Adversary: staticAdv{graph.Star(n)},
		MaxRounds: 5,
	})
	if err == nil || !strings.Contains(err.Error(), "mutated its inbox") {
		t.Fatalf("inbox mutation not detected: %v", err)
	}
}

// learnedProto commits a random held token, or ⊥, every round, reading its
// holdings from NodeEnv.Know, and copies each learned list Deliver hands it
// into got[ID].
type learnedProto struct {
	env NodeEnv
	got [][]token.ID
}

func (p *learnedProto) Choose(int) token.ID {
	var held []token.ID
	for t := 0; t < p.env.K; t++ {
		if p.env.Know.Contains(t) {
			held = append(held, t)
		}
	}
	if len(held) == 0 || p.env.Rng.Intn(4) == 0 {
		return token.None
	}
	return held[p.env.Rng.Intn(len(held))]
}

func (p *learnedProto) Deliver(_ int, learned []token.ID) {
	p.got[p.env.ID] = append([]token.ID(nil), learned...)
}

// freshGraphAdv serves a new random connected graph every round and keeps
// the last one for the test's reference.
type freshGraphAdv struct {
	rng  *rand.Rand
	last *graph.Graph
}

func (a *freshGraphAdv) Name() string { return "fresh-graph-test" }
func (a *freshGraphAdv) NextGraph(v *View) *graph.Graph {
	a.last = graph.RandomConnected(v.N, v.N-1+a.rng.Intn(2*v.N), a.rng)
	return a.last
}

// TestBroadcastLearnedMatchesPerEdgeReference checks broadcast delivery
// against a naive per-edge computation on random connected graphs, random
// token placements and random committed choices: for each node, walk every
// (sender, token) pair of the round in increasing sender order and keep the
// first occurrence of each token the node did not hold. That list is what
// Deliver must hand the node, and over a run the lists' lengths must add
// up to Metrics.Learnings.
func TestBroadcastLearnedMatchesPerEdgeReference(t *testing.T) {
	var total int64
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, k := 2+rng.Intn(39), 1+rng.Intn(20)
		holders := make([]graph.NodeID, k)
		holds := make([][]bool, n) // the reference's K_v, as dense bool rows
		for v := range holds {
			holds[v] = make([]bool, k)
		}
		for tok := range holders {
			holders[tok] = rng.Intn(n)
			holds[holders[tok]][tok] = true
		}
		assign, err := token.NewAssignment(n, holders)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]token.ID, n)
		adv := &freshGraphAdv{rng: rng}
		var delivered int64
		res, err := Run(Config{
			Assign:    assign,
			Broadcast: func(env NodeEnv) BroadcastProtocol { return &learnedProto{env: env, got: got} },
			Adversary: adv,
			Seed:      seed,
			MaxRounds: 12,
			OnRound: func(r int, _ graph.Diff, view *View, learned int64) {
				var round int64
				for u := 0; u < n; u++ {
					var want []token.ID
					for v := 0; v < n; v++ {
						c := view.Choices[v]
						if c == token.None || !adv.last.HasEdge(v, u) || holds[u][c] {
							continue
						}
						holds[u][c] = true
						want = append(want, c)
					}
					if !slices.Equal(got[u], want) {
						t.Fatalf("seed %d round %d node %d: learned %v, per-edge reference %v", seed, r, u, got[u], want)
					}
					round += int64(len(got[u]))
					got[u] = nil
				}
				if round != learned {
					t.Fatalf("seed %d round %d: learned lists hold %d tokens, OnRound reports %d", seed, r, round, learned)
				}
				delivered += round
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if delivered != res.Metrics.Learnings {
			t.Fatalf("seed %d: learned lists hold %d tokens over the run, Metrics.Learnings = %d", seed, delivered, res.Metrics.Learnings)
		}
		total += delivered
	}
	if total == 0 {
		t.Fatal("no node learned anything; the check is vacuous")
	}
}
