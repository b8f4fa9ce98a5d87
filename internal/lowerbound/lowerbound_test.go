package lowerbound

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

// buildView constructs a broadcast-mode View with the given initial knowledge
// and choices by running a one-round probe through the broadcast engine.
func buildView(t *testing.T, n, k int, holders []int, choices []token.ID) *sim.View {
	t.Helper()
	assign, err := token.NewAssignment(n, holders)
	if err != nil {
		t.Fatal(err)
	}
	var captured *sim.View
	adv := captureAdv{out: &captured}
	_, err = sim.Run(sim.Config{
		Assign: assign,
		Broadcast: func(env sim.NodeEnv) sim.BroadcastProtocol {
			return fixedChoice{c: choices[env.ID]}
		},
		Adversary: adv,
		MaxRounds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("view not captured")
	}
	return captured
}

type captureAdv struct{ out **sim.View }

func (captureAdv) Name() string { return "capture" }
func (a captureAdv) NextGraph(v *sim.View) *graph.Graph {
	if *a.out == nil {
		// Keep a usable copy: the engine reuses the view struct, but only
		// after this call returns, and we run a single round.
		*a.out = v
	}
	return graph.Path(v.N)
}

type fixedChoice struct{ c token.ID }

func (f fixedChoice) Choose(int) token.ID   { return f.c }
func (fixedChoice) Deliver(int, []token.ID) {}

func TestSampleBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inst, err := Sample(40, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	if inst.n != 40 || len(inst.kprime) != 40 {
		t.Fatalf("n=%d, %d K' sets", inst.n, len(inst.kprime))
	}
	total := 0
	for v, s := range inst.kprime {
		if s.Len() != 40 {
			t.Fatalf("K'_%d has universe %d, want k = 40", v, s.Len())
		}
		total += s.Count()
	}
	if total > (3*40*40)/10 {
		t.Fatalf("Σ|K'| = %d > 0.3nk", total)
	}
	// Roughly a quarter of tokens sampled (loose sanity window).
	if total < 40*40/8 {
		t.Fatalf("Σ|K'| = %d suspiciously small", total)
	}
}

func TestSampleErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Sample(0, 5, rng); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := Sample(5, 0, rng); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestPotentialAndMax(t *testing.T) {
	// 4 nodes, 4 tokens, each node starts with one token.
	n, k := 4, 4
	choices := []token.ID{token.None, token.None, token.None, token.None}
	view := buildView(t, n, k, []int{0, 1, 2, 3}, choices)
	inst, err := Sample(n, k, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	phi := inst.Potential(view)
	// Φ = Σ |K_v ∪ K'_v| where K_v = {v's token}: between n (all K' empty
	// or subsumed) and nk.
	if phi < int64(n) || phi > int64(n*k) {
		t.Fatalf("Φ = %d out of range", phi)
	}
	// Manual recomputation.
	var want int64
	for v := 0; v < n; v++ {
		want += int64(inst.kprime[v].Count())
		if !inst.kprime[v].Contains(v) { // node v holds token v (global IDs follow holder order)
			want++
		}
	}
	if phi != want {
		t.Fatalf("Φ = %d, want %d", phi, want)
	}
}

func TestFreePredicate(t *testing.T) {
	// Node 0 broadcasts token 0; nodes 1..3 silent.
	n, k := 4, 4
	view := buildView(t, n, k, []int{0, 1, 2, 3}, []token.ID{0, token.None, token.None, token.None})
	inst, err := Sample(n, k, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	// Silent-silent pairs are always free.
	if !inst.Free(view, 1, 2) || !inst.Free(view, 2, 3) {
		t.Fatal("silent-silent edge not free")
	}
	// Edge {0, v}: free iff v already "covers" token 0 via K_v or K'_v.
	for v := 1; v < n; v++ {
		covered := view.Knows(v, 0) || inst.kprime[v].Contains(0)
		if inst.Free(view, 0, v) != covered {
			t.Fatalf("Free(0,%d) = %v, covered = %v", v, inst.Free(view, 0, v), covered)
		}
	}
}

func TestFreeGraphMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 3
		k := rng.Intn(8) + 2
		holders := make([]int, k)
		for i := range holders {
			holders[i] = rng.Intn(n)
		}
		choices := make([]token.ID, n)
		for v := range choices {
			if rng.Intn(2) == 0 {
				choices[v] = token.None
			} else {
				// broadcast a token the node actually holds, if any
				choices[v] = token.None
				for g, h := range holders {
					if h == v {
						choices[v] = g
						break
					}
				}
			}
		}
		assign, err := token.NewAssignment(n, holders)
		if err != nil {
			return false
		}
		var captured *sim.View
		_, err = sim.Run(sim.Config{
			Assign: assign,
			Broadcast: func(env sim.NodeEnv) sim.BroadcastProtocol {
				return fixedChoice{c: choices[env.ID]}
			},
			Adversary: captureAdv{out: &captured},
			MaxRounds: 1,
		})
		if err != nil || captured == nil {
			return false
		}
		inst, err := Sample(n, k, rng)
		if err != nil {
			return false
		}
		dsu, forest := inst.FreeGraph(captured)
		// Brute force: union over all free pairs.
		brute := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if inst.Free(captured, u, v) {
					brute.AddEdge(u, v)
				}
			}
		}
		if dsu.Components() != brute.Components() {
			return false
		}
		// The forest must consist of free edges and span the components.
		fg := graph.New(n)
		for _, e := range forest {
			if !inst.Free(captured, e[0], e[1]) {
				return false
			}
			fg.AddEdge(e[0], e[1])
		}
		return fg.Components() == brute.Components()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseThreshold(t *testing.T) {
	if got := SparseThreshold(1); got != 0 {
		t.Fatalf("n=1: %d", got)
	}
	if got := SparseThreshold(1024); got != 102 {
		t.Fatalf("n=1024: %d (log2 = 10)", got)
	}
}
