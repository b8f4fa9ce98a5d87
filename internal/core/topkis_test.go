package core

import (
	"math/rand"
	"slices"
	"testing"

	"dynspread/internal/adversary"
	"dynspread/internal/bitset"
	"dynspread/internal/graph"
	"dynspread/internal/registry"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

func TestTopkisLinearRoundsOnStatic(t *testing.T) {
	// Topkis [39]: O(n + k) rounds on any static connected graph.
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(16)},
		{"cycle", graph.Cycle(16)},
		{"complete", graph.Complete(16)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, k := 16, 32
			assign, err := token.SingleSource(n, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(sim.Config{
				Assign:    assign,
				Unicast:   NewTopkis(),
				Adversary: staticAdv(tc.g),
				MaxRounds: 20 * (n + k),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("incomplete after %d rounds", res.Rounds)
			}
			if res.Rounds > 4*(n+k) {
				t.Fatalf("rounds = %d > 4(n+k)", res.Rounds)
			}
		})
	}
}

func TestTopkisGossip(t *testing.T) {
	n := 10
	assign, err := token.Gossip(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Assign:    assign,
		Unicast:   NewTopkis(),
		Adversary: staticAdv(graph.Cycle(n)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
}

func TestTopkisMessageHungryVsAlgorithm1(t *testing.T) {
	// The contrast the paper draws: on a dense static graph Topkis spends
	// ~m messages per round while Algorithm 1 requests precisely. For
	// k << n·m the single-source algorithm must use fewer messages.
	n, k := 16, 8
	assign, err := token.SingleSource(n, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Complete(n)
	run := func(f sim.Factory) *sim.Result {
		res, err := sim.Run(sim.Config{
			Assign:    assign,
			Unicast:   f,
			Adversary: staticAdv(g),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("incomplete")
		}
		return res
	}
	topkis := run(NewTopkis())
	alg1 := run(NewMultiSource())
	if alg1.Metrics.Messages >= topkis.Metrics.Messages {
		t.Fatalf("Algorithm 1 (%d msgs) should beat Topkis (%d msgs) on K_%d",
			alg1.Metrics.Messages, topkis.Metrics.Messages, n)
	}
}

func TestTopkisUnderChurn(t *testing.T) {
	// Topkis makes no dynamic guarantee but should still finish under mild
	// stable churn (it pushes on every edge).
	n, k := 12, 6
	assign, err := token.SingleSource(n, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := adversary.NewChurn(n, adversary.ChurnOpts{Sigma: 3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Assign:    assign,
		Unicast:   NewTopkis(),
		Adversary: adversary.Oblivious(churn),
		MaxRounds: 100 * n * k,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
}

// scanFromZeroTopkis is the obviously-correct reference for Topkis's
// per-neighbor cursor: it searches K_v for the lowest token not yet sent
// to a neighbor from token 0 every time, and builds each message with
// sim.TokenMsg.
type scanFromZeroTopkis struct {
	env  sim.NodeEnv
	sent []*bitset.Set
	nbrs []graph.NodeID
}

func (p *scanFromZeroTopkis) BeginRound(_ int, nbrs []graph.NodeID) { p.nbrs = nbrs }

func (p *scanFromZeroTopkis) Send(int) []sim.Message {
	var out []sim.Message
	for _, u := range p.nbrs {
		if p.sent[u] == nil {
			p.sent[u] = bitset.New(p.env.K)
		}
		t := p.env.Know.FirstNotIn(p.sent[u], 0)
		if t == token.None {
			continue
		}
		p.sent[u].Add(t)
		info := p.env.InfoOf(t)
		out = append(out, sim.TokenMsg(p.env.ID, u, sim.TokenPayload{ID: t, Owner: info.Source, Index: info.Index}))
	}
	return out
}

func (p *scanFromZeroTopkis) Arrive(int, token.ID)       {}
func (p *scanFromZeroTopkis) Deliver(int, []sim.Message) {}

// TestTopkisCursorMatchesScanFromZero runs Topkis against the scan-from-0
// reference under every registered unicast adversary, with and without a
// late-arrival schedule: dynamic graphs and late tokens leave gaps in a
// sent-set, which is where a cursor that skipped an unsent token would
// show. Every round's messages, the metrics, the round count and the
// completion flag must be identical.
func TestTopkisCursorMatchesScanFromZero(t *testing.T) {
	const n, k, s = 12, 40, 3
	assign, err := token.Balanced(n, k, s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	late := make([]int, k)
	for i := range late {
		if rng.Intn(2) == 0 {
			late[i] = 1 + rng.Intn(30)
		}
	}
	ref := func(env sim.NodeEnv) sim.Protocol {
		return &scanFromZeroTopkis{env: env, sent: make([]*bitset.Set, env.N)}
	}
	run := func(t *testing.T, spec registry.Adversary, f sim.Factory, sched []int) (*sim.Result, []sim.Message) {
		t.Helper()
		adv, err := spec.New(registry.Params{N: n, K: k, Sources: s, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var log []sim.Message
		res, err := sim.Run(sim.Config{
			Assign:          assign,
			Unicast:         f,
			Adversary:       adv,
			Seed:            3,
			ArrivalSchedule: sched,
			MaxRounds:       5000,
			OnRound: func(_ int, _ graph.Diff, view *sim.View, _ int64) {
				log = append(log, view.LastSent...)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, log
	}
	advs := 0
	for _, spec := range registry.Adversaries() {
		if !spec.Modes.Has(registry.Unicast) {
			continue
		}
		advs++
		for _, sched := range []struct {
			name string
			s    []int
		}{{"classic", nil}, {"arrivals", late}} {
			t.Run(spec.Name+"/"+sched.name, func(t *testing.T) {
				got, gotLog := run(t, spec, NewTopkis(), sched.s)
				want, wantLog := run(t, spec, ref, sched.s)
				if *got != *want {
					t.Fatalf("cursor run %+v, scan-from-0 run %+v", *got, *want)
				}
				if !slices.Equal(gotLog, wantLog) {
					t.Fatal("cursor run sent different messages than the scan-from-0 run")
				}
				if !got.Completed {
					t.Fatalf("incomplete after %d rounds", got.Rounds)
				}
			})
		}
	}
	if advs == 0 {
		t.Fatal("no unicast adversary registered")
	}
}

// silentProtocol sends nothing and allocates nothing.
type silentProtocol struct{}

func (silentProtocol) BeginRound(int, []graph.NodeID) {}
func (silentProtocol) Send(int) []sim.Message         { return nil }
func (silentProtocol) Deliver(int, []sim.Message)     {}

// TestTopkisAllocsPerNode: a node carves its sent-sets from slabs, and
// grows them with its sent entries and its Send buffer, to its degree at
// its first Send. On a static graph that Send meets every neighbor the
// node will ever have, so the node allocates five objects whatever its
// degree: the Topkis value and its contact index in the factory, then its
// sent entries, one slab and its Send buffer. (A set per contact cost two
// objects, 36 per node in all on K_16.) An engine run whose protocol
// allocates nothing is the baseline; on a warm workspace the engine adds
// no per-node or per-round objects of its own.
func TestTopkisAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race (see raceEnabled)")
	}
	const n, k = 16, 64
	assign, err := token.SingleSource(n, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	adv := staticAdv(graph.Complete(n))
	allocs := func(f sim.Factory) float64 {
		cfg := sim.Config{
			Assign:    assign,
			Unicast:   f,
			Adversary: adv,
			MaxRounds: 4 * (n + k),
			Workspace: sim.NewWorkspace(),
		}
		run := func() {
			if _, err := sim.Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the workspace and the graph's memoized state
		return testing.AllocsPerRun(5, run)
	}
	base := allocs(func(sim.NodeEnv) sim.Protocol { return silentProtocol{} })
	per := (allocs(NewTopkis()) - base) / n
	t.Logf("Topkis allocates %.1f objects per node on K_%d", per, n)
	if per > 5 {
		t.Fatalf("Topkis allocates %.1f objects per node on K_%d, want at most 5", per, n)
	}
}
