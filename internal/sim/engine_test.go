package sim

import (
	"strings"
	"testing"

	"dynspread/internal/graph"
	"dynspread/internal/token"
)

func TestDefaultMaxRoundsBounds(t *testing.T) {
	cases := []struct {
		n, k, want int
	}{
		{2, 1, 1000}, // tiny instances hit the floor (formula gives 160)
		{4, 4, 1000}, // 640+160 = 800, still floored
		{5, 4, 1000}, // 800+200 = 1000, exactly at the floor
		{10, 10, 4400},
		{64, 128, 40*64*128 + 40*64},
		{100, 1000, 40*100*1000 + 40*100},
	}
	for _, c := range cases {
		if got := DefaultMaxRounds(c.n, c.k); got != c.want {
			t.Errorf("DefaultMaxRounds(%d, %d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	// The floor must be reachable (the seed's dead `+1000` clamp was not)
	// and the cap must stay comfortably above the paper's O(nk) bounds.
	for _, c := range cases {
		got := DefaultMaxRounds(c.n, c.k)
		if got < 1000 {
			t.Errorf("DefaultMaxRounds(%d, %d) = %d below the 1000 floor", c.n, c.k, got)
		}
		if got < 40*c.n*c.k {
			t.Errorf("DefaultMaxRounds(%d, %d) = %d below 40nk", c.n, c.k, got)
		}
	}
}

// A shared workspace must never change results — across repeated identical
// runs, across mode switches, and across instance-shape changes.
func TestWorkspaceReuseMatchesFreshBuffers(t *testing.T) {
	ws := NewWorkspace()
	unicast := func(w *Workspace) *Result {
		t.Helper()
		assign, err := token.SingleSource(8, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Assign:    assign,
			Unicast:   newPushProto,
			Adversary: staticAdv{graph.Cycle(8)},
			Seed:      3,
			Workspace: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fresh := unicast(nil)
	for i := 0; i < 3; i++ {
		if got := unicast(ws); got.Metrics != fresh.Metrics || got.Rounds != fresh.Rounds {
			t.Fatalf("reuse round %d diverged: %+v vs %+v", i, got.Metrics, fresh.Metrics)
		}
		// Interleave a run of a different shape and mode to dirty the
		// workspace before the next identical run.
		assign, err := token.Gossip(6)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(Config{
			Assign:    assign,
			Broadcast: newFloodB,
			Adversary: staticAdv{graph.Complete(6)},
			Seed:      int64(i),
			Workspace: ws,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// togglingAdv serves one graph every round, toggling edge {0,4} on it from
// round 2 on: it rewrites the graph the engine diffs the next round against.
type togglingAdv struct{ g *graph.Graph }

func (a *togglingAdv) Name() string { return "toggling" }
func (a *togglingAdv) NextGraph(v *View) *graph.Graph {
	if a.g == nil {
		a.g = graph.Path(v.N)
	} else if !a.g.RemoveEdge(0, 4) {
		a.g.AddEdge(0, 4)
	}
	return a.g
}

// TestEngineRejectsRewrittenServedGraph: an adversary that changes the
// graph it served for round r before round r+1 is diffed against it must
// fail the run, naming itself and the round, instead of being charged an
// empty diff (the identity short-cut saw prev == g and reported TC 4,
// Removals 0 for an edge inserted five times and removed four).
func TestEngineRejectsRewrittenServedGraph(t *testing.T) {
	res, err := Run(Config{
		Assign:    singleSource(t, 5, 2, 0),
		Unicast:   func(NodeEnv) Protocol { return silentProto{} },
		Adversary: &togglingAdv{},
		MaxRounds: 10,
	})
	if err == nil {
		t.Fatalf("no error; metrics %+v", res.Metrics)
	}
	if msg := err.Error(); !strings.Contains(msg, `"toggling"`) || !strings.Contains(msg, "round 2") {
		t.Fatalf("error %q does not name the adversary and round 2", msg)
	}
}
