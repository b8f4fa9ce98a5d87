package sim

import (
	"strings"
	"testing"

	"dynspread/internal/bitset"
	"dynspread/internal/graph"
	"dynspread/internal/token"
)

// Arrive makes pushProto streaming-capable for the arrival tests: an
// injected token joins the known set and is pushed like any other.
func (p *pushProto) Arrive(_ int, t token.ID) { p.know.Add(t) }

// bFloodProto is a minimal streaming-capable broadcast protocol: round r
// broadcasts token (r-1) mod k if held (flooding with window length 1).
type bFloodProto struct {
	env  NodeEnv
	know *bitset.Set
}

func newBFloodProto(env NodeEnv) BroadcastProtocol {
	p := &bFloodProto{env: env, know: bitset.New(env.K)}
	for _, t := range env.Initial {
		p.know.Add(t)
	}
	return p
}

func (p *bFloodProto) Choose(r int) token.ID {
	t := (r - 1) % p.env.K
	if p.know.Contains(t) {
		return t
	}
	return token.None
}

func (p *bFloodProto) Deliver(_ int, learned []token.ID) {
	for _, t := range learned {
		p.know.Add(t)
	}
}

func (p *bFloodProto) Arrive(_ int, t token.ID) { p.know.Add(t) }

func TestArrivalScheduleAllZeroMatchesNil(t *testing.T) {
	assign := singleSource(t, 8, 5, 0)
	base, err := Run(Config{
		Assign: assign, Unicast: newPushProto,
		Adversary: staticAdv{graph.Path(8)}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Run(Config{
		Assign: assign, Unicast: newPushProto,
		Adversary: staticAdv{graph.Path(8)}, Seed: 1,
		ArrivalSchedule: make([]int, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if *base != *zero {
		t.Fatalf("all-zero schedule diverged from nil schedule:\n nil  %+v\n zero %+v", base, zero)
	}

	bassign := gossip(t, 6)
	bbase, err := Run(Config{
		Assign: bassign, Broadcast: newBFloodProto,
		Adversary: staticAdv{graph.Cycle(6)}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	bzero, err := Run(Config{
		Assign: bassign, Broadcast: newBFloodProto,
		Adversary: staticAdv{graph.Cycle(6)}, Seed: 3,
		ArrivalSchedule: make([]int, 6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if *bbase != *bzero {
		t.Fatalf("broadcast all-zero schedule diverged:\n nil  %+v\n zero %+v", bbase, bzero)
	}
}

func TestArrivalScheduleStreamsUnicast(t *testing.T) {
	const n, k = 4, 4
	assign := singleSource(t, n, k, 0)
	sched := []int{0, 3, 7, 7}
	firstSeen := map[token.ID]int{}
	res, err := Run(Config{
		Assign: assign, Unicast: newPushProto,
		Adversary:       staticAdv{graph.Path(n)},
		Seed:            1,
		ArrivalSchedule: sched,
		OnRound: func(r int, _ graph.Diff, view *View, _ int64) {
			for i := range view.LastSent {
				if tok := view.LastSent[i].carriedToken(); tok != token.None {
					if _, ok := firstSeen[tok]; !ok {
						firstSeen[tok] = r
					}
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("did not complete: %+v", res)
	}
	if res.Rounds < 7 {
		t.Fatalf("completed in round %d, before the last arrival (round 7)", res.Rounds)
	}
	if res.Metrics.Learnings != assign.RequiredLearnings() {
		t.Fatalf("Learnings = %d, want %d", res.Metrics.Learnings, assign.RequiredLearnings())
	}
	for tok, r := range sched {
		if r == 0 {
			continue
		}
		if seen, ok := firstSeen[tok]; ok && seen < r {
			t.Errorf("token %d on the wire in round %d, before its arrival round %d", tok, seen, r)
		}
	}
}

func TestArrivalScheduleStreamsBroadcast(t *testing.T) {
	const n = 5
	assign := gossip(t, n)
	// Every node's token arrives at a different round.
	sched := []int{0, 2, 4, 6, 8}
	res, err := Run(Config{
		Assign: assign, Broadcast: newBFloodProto,
		Adversary:       staticAdv{graph.Cycle(n)},
		Seed:            2,
		ArrivalSchedule: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("did not complete: %+v", res)
	}
	if res.Rounds < 8 {
		t.Fatalf("completed in round %d, before the last arrival (round 8)", res.Rounds)
	}
	if res.Metrics.Learnings != assign.RequiredLearnings() {
		t.Fatalf("Learnings = %d, want %d", res.Metrics.Learnings, assign.RequiredLearnings())
	}
}

func TestArrivalScheduleErrors(t *testing.T) {
	assign := singleSource(t, 4, 3, 0)
	run := func(sched []int, factory Factory) error {
		_, err := Run(Config{
			Assign: assign, Unicast: factory,
			Adversary:       staticAdv{graph.Path(4)},
			MaxRounds:       50,
			ArrivalSchedule: sched,
		})
		return err
	}
	if err := run([]int{0, 1}, newPushProto); err == nil || !strings.Contains(err.Error(), "entries") {
		t.Fatalf("length mismatch not rejected: %v", err)
	}
	if err := run([]int{0, -1, 0}, newPushProto); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative round not rejected: %v", err)
	}
	silent := func(NodeEnv) Protocol { return silentProto{} }
	err := run([]int{0, 5, 0}, silent)
	if err == nil || !strings.Contains(err.Error(), "TokenArriver") {
		t.Fatalf("unsupported protocol not rejected: %v", err)
	}
	// Without late arrivals a non-TokenArriver protocol stays accepted.
	if err := run(make([]int, 3), silent); err != nil {
		t.Fatalf("all-zero schedule rejected for plain protocol: %v", err)
	}
	// An explicit round cap below the last scheduled arrival can never
	// complete and must fail fast rather than time out.
	if err := run([]int{0, 99, 0}, newPushProto); err == nil || !strings.Contains(err.Error(), "below the last scheduled") {
		t.Fatalf("cap below last arrival not rejected: %v", err)
	}
}
