package sim

import (
	"math"
	"testing"

	"dynspread/internal/graph"
	"dynspread/internal/token"
)

// TestBroadcastMetricsInvariants pins the broadcast-mode accounting: every
// local broadcast is exactly one message (Messages == Broadcasts) and no
// unicast payload tallies move.
func TestBroadcastMetricsInvariants(t *testing.T) {
	assign := gossip(t, 8)
	res, err := Run(Config{
		Assign:    assign,
		Broadcast: newFloodB,
		Adversary: staticAdv{graph.Cycle(8)},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Messages == 0 || m.Messages != m.Broadcasts {
		t.Fatalf("broadcast mode: Messages = %d, Broadcasts = %d, want equal and > 0", m.Messages, m.Broadcasts)
	}
	if m.TokenPayloads != 0 || m.RequestPayloads != 0 || m.CompletenessPayloads != 0 ||
		m.WalkPayloads != 0 || m.ControlPayloads != 0 {
		t.Fatalf("broadcast mode moved unicast payload tallies: %+v", m)
	}
}

// TestUnicastMetricsInvariants pins the unicast-mode accounting under the
// bitmask message representation: Broadcasts stays 0, every message carries
// at least one payload (tallies sum to >= Messages), and for a single-kind
// protocol the matching tally equals Messages exactly.
func TestUnicastMetricsInvariants(t *testing.T) {
	assign := singleSource(t, 8, 5, 0)
	res, err := Run(Config{
		Assign:    assign,
		Unicast:   newPushProto,
		Adversary: staticAdv{graph.Path(8)},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Broadcasts != 0 {
		t.Fatalf("unicast mode counted %d broadcasts", m.Broadcasts)
	}
	sum := m.TokenPayloads + m.RequestPayloads + m.CompletenessPayloads + m.WalkPayloads + m.ControlPayloads
	if sum < m.Messages {
		t.Fatalf("payload tallies sum to %d < Messages %d: some message counted no payload", sum, m.Messages)
	}
	if m.TokenPayloads != m.Messages {
		t.Fatalf("push protocol sends only tokens: TokenPayloads = %d, Messages = %d", m.TokenPayloads, m.Messages)
	}
}

// TestArrivalExactlyAtMaxRounds: an arrival scheduled AT the explicit round
// cap is legal (only arrivals beyond the cap are impossible) and the token
// can still be forwarded in that final round.
func TestArrivalExactlyAtMaxRounds(t *testing.T) {
	const cap = 9
	assign := singleSource(t, 2, 2, 0)
	res, err := Run(Config{
		Assign: assign, Unicast: newPushProto,
		Adversary:       staticAdv{graph.Path(2)},
		MaxRounds:       cap,
		ArrivalSchedule: []int{0, cap},
	})
	if err != nil {
		t.Fatalf("arrival at the exact cap rejected: %v", err)
	}
	if !res.Completed || res.Rounds != cap {
		t.Fatalf("res = %+v, want completion in exactly round %d (inject, forward, learn)", res, cap)
	}
}

// TestAllTokensLateBurst runs the scenario layer's Burst{Round: R > 0} shape
// at the sim level on n = 2: EVERY token arrives late, so nothing can move
// before round R and the run must still complete shortly after the burst.
func TestAllTokensLateBurst(t *testing.T) {
	const R, k = 6, 3
	assign := singleSource(t, 2, k, 0)
	sched := make([]int, k)
	for i := range sched {
		sched[i] = R // Burst{Round: R}.Rounds(k, seed) materializes to this
	}
	var before int64
	res, err := Run(Config{
		Assign: assign, Unicast: newPushProto,
		Adversary:       staticAdv{graph.Path(2)},
		ArrivalSchedule: sched,
		OnRound: func(r int, _ graph.Diff, view *View, _ int64) {
			if r < R {
				before += int64(len(view.LastSent))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if before != 0 {
		t.Fatalf("%d messages sent before the burst round %d", before, R)
	}
	if !res.Completed || res.Rounds < R {
		t.Fatalf("res = %+v, want completion at or after the burst round %d", res, R)
	}
	// One learning per token at the non-source node.
	if res.Metrics.Learnings != k {
		t.Fatalf("Learnings = %d, want %d", res.Metrics.Learnings, k)
	}
}

// TestDefaultMaxRoundsOverflow: absurd (n, k) must saturate the cap, never
// wrap into a negative or tiny value.
func TestDefaultMaxRoundsOverflow(t *testing.T) {
	cases := [][2]int{
		{math.MaxInt / 2, math.MaxInt / 2},
		{math.MaxInt, 2},
		{3, math.MaxInt},
		{1, math.MaxInt}, // k+1 itself would wrap
		{math.MaxInt, 1},
		{1 << 20, 1 << 24}, // the wire-layer limits themselves
	}
	for _, c := range cases {
		if got := DefaultMaxRounds(c[0], c[1]); got <= 0 || got > maxRoundCap {
			t.Fatalf("DefaultMaxRounds(%d, %d) = %d, want in (0, %d]", c[0], c[1], got, maxRoundCap)
		}
	}
	if got := DefaultMaxRounds(maxRoundCap, 5); got != maxRoundCap {
		t.Fatalf("overflowing instance not clamped: %d", got)
	}
	// Negative inputs behave like zero.
	if got := DefaultMaxRounds(-5, -5); got != 1000 {
		t.Fatalf("DefaultMaxRounds(-5, -5) = %d, want the 1000 floor", got)
	}
	// Normal instances keep the exact historical formula.
	if got := DefaultMaxRounds(32, 32); got != 40*32*32+40*32 {
		t.Fatalf("DefaultMaxRounds(32, 32) = %d changed", got)
	}
}

// checkHolders fails unless the engine's holder count of every token is
// the number of nodes whose K_v holds it.
func checkHolders(t *testing.T, ws *Workspace, r int) {
	t.Helper()
	for tok, got := range ws.holders {
		want := 0
		for _, s := range ws.know {
			if s.Contains(tok) {
				want++
			}
		}
		if got != want {
			t.Fatalf("round %d: holders[%d] = %d, but %d nodes hold it", r, tok, got, want)
		}
	}
}

// TestHoldersExactBroadcast checks after every round that holders[t] counts
// the nodes holding t, and that every neighbor of a node that broadcast t
// holds t: skipping the delivery of a token every node holds must never
// skip one that teaches someone. Gossip on a path keeps most tokens short
// of n holders for many rounds; the arrival schedule adds late injections.
func TestHoldersExactBroadcast(t *testing.T) {
	const n = 8
	g := graph.Path(n)
	for _, tc := range []struct {
		name    string
		factory BroadcastFactory
		sched   []int
	}{
		{"classic", newFloodB, nil},
		{"arrivals", newBFloodProto, []int{0, 3, 0, 9, 1, 0, 14, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := NewWorkspace()
			rounds := 0
			res, err := Run(Config{
				Assign:          gossip(t, n),
				Broadcast:       tc.factory,
				Adversary:       staticAdv{g},
				ArrivalSchedule: tc.sched,
				Workspace:       ws,
				OnRound: func(r int, _ graph.Diff, view *View, _ int64) {
					rounds++
					checkHolders(t, ws, r)
					for v, c := range view.Choices {
						if c == token.None {
							continue
						}
						for _, u := range g.Neighbors(v) {
							if !ws.know[u].Contains(c) {
								t.Fatalf("round %d: node %d broadcast token %d, but neighbor %d does not hold it", r, v, c, u)
							}
						}
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed || rounds != res.Rounds {
				t.Fatalf("res = %+v after %d observed rounds, want completion", res, rounds)
			}
		})
	}
}

// TestHoldersExactUnicast is TestHoldersExactBroadcast's unicast twin:
// holders stays exact under token deliveries and late arrivals, and every
// delivered token is held by its receiver.
func TestHoldersExactUnicast(t *testing.T) {
	const n, k = 8, 6
	for _, tc := range []struct {
		name  string
		sched []int
	}{
		{"classic", nil},
		{"arrivals", []int{0, 4, 0, 11, 2, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := NewWorkspace()
			rounds := 0
			res, err := Run(Config{
				Assign:          singleSource(t, n, k, 3),
				Unicast:         newPushProto,
				Adversary:       staticAdv{graph.Cycle(n)},
				ArrivalSchedule: tc.sched,
				Workspace:       ws,
				OnRound: func(r int, _ graph.Diff, view *View, _ int64) {
					rounds++
					checkHolders(t, ws, r)
					for i := range view.LastSent {
						if tok := view.LastSent[i].carriedToken(); tok != token.None && !ws.know[view.LastSent[i].To].Contains(tok) {
							t.Fatalf("round %d: token %d delivered to %d, which does not hold it", r, tok, view.LastSent[i].To)
						}
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed || rounds != res.Rounds {
				t.Fatalf("res = %+v after %d observed rounds, want completion", res, rounds)
			}
		})
	}
}
