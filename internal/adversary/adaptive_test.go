package adversary

import (
	"strings"
	"testing"

	"dynspread/internal/core"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

func TestRequestCutterRun(t *testing.T) {
	assign, err := token.SingleSource(10, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := NewRequestCutter(10, 0, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunUnicast(sim.UnicastConfig{
		Assign:    assign,
		Factory:   core.NewMultiSource(),
		Adversary: adv,
		Seed:      1,
		MaxRounds: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("Algorithm 1 did not complete under request cutter")
	}
	if adv.cuts == 0 {
		t.Fatal("adversary never cut a request edge")
	}
	// Every cut is one removal; removals never exceed insertions (TC) since
	// executions start from the empty graph.
	if res.Metrics.Removals < adv.cuts {
		t.Fatalf("Removals = %d < Cuts = %d", res.Metrics.Removals, adv.cuts)
	}
	if res.Metrics.Removals > res.Metrics.TC {
		t.Fatalf("Removals = %d > TC = %d", res.Metrics.Removals, res.Metrics.TC)
	}
}

func TestRequestCutterValidation(t *testing.T) {
	if _, err := NewRequestCutter(1, 0, 0.5, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewRequestCutter(5, 0, 1.0, 0); err == nil {
		t.Fatal("cutProb=1 accepted")
	}
	adv, err := NewRequestCutter(5, 3, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestFreeEdgeAdversaryInvariants(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		name := "dense"
		if sparse {
			name = "sparse"
		}
		t.Run(name, func(t *testing.T) {
			n := 16
			assign, err := token.Gossip(n)
			if err != nil {
				t.Fatal(err)
			}
			adv := NewFreeEdge(sparse, 1, 5)
			res, err := sim.RunBroadcast(sim.BroadcastConfig{
				Assign:    assign,
				Factory:   core.NewFlooding(0),
				Adversary: adv,
				Seed:      2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("flooding did not complete in %d rounds", res.Rounds)
			}
			if !adv.SetupOK() {
				t.Fatal("Φ(0) > 0.8nk")
			}
			st := adv.Stats()
			if st.BoundViolations != 0 {
				t.Fatalf("ΔΦ exceeded 2(ℓ−1) in %d rounds", st.BoundViolations)
			}
			if st.MaxComponents < 1 {
				t.Fatal("no component stats")
			}
			if st.InitialPhi <= 0 || st.InitialPhi > int64(n*n) {
				t.Fatalf("InitialPhi = %d", st.InitialPhi)
			}
			// The adversary must slow flooding down relative to a static
			// graph (where nk rounds always suffice); sanity floor only.
			if res.Rounds < n {
				t.Fatalf("suspiciously fast: %d rounds", res.Rounds)
			}
		})
	}
}

func TestFreeEdgeSparseZeroProgress(t *testing.T) {
	// With a single broadcasting node per round (≤ the Lemma 2.2 sparse
	// threshold), the free graph stays connected and the adversary allows
	// zero potential progress.
	n := 24
	assign, err := token.Gossip(n)
	if err != nil {
		t.Fatal(err)
	}
	adv := NewFreeEdge(true, 1, 9)
	res, err := sim.RunBroadcast(sim.BroadcastConfig{
		Assign:    assign,
		Factory:   core.NewSilentBroadcast(1, 0),
		Adversary: adv,
		MaxRounds: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("should not complete with a single broadcaster against the free-edge adversary")
	}
	st := adv.Stats()
	if st.SparseRounds == 0 {
		t.Fatal("no sparse rounds recorded")
	}
	// Lemma 2.2: sparse rounds make zero potential progress. (Learnings of
	// K'-covered tokens over free edges are allowed; they don't move Φ.)
	if st.SparseProgress != 0 {
		t.Fatalf("sparse-round potential progress = %d, want 0", st.SparseProgress)
	}
}

// TestAdaptiveAdversariesRejectOtherMode: each strongly or weakly adaptive
// adversary serves one mode, and handed the other mode's view it makes the
// engine fail the run in round 1 with an error naming it — no panic on
// free-edge's missing Choices, no request-cutter that silently never cuts.
func TestAdaptiveAdversariesRejectOtherMode(t *testing.T) {
	assign, err := token.Gossip(6)
	if err != nil {
		t.Fatal(err)
	}
	wantRound1 := func(err error, name string) {
		t.Helper()
		if want := `adversary "` + name + `" returned invalid graph in round 1`; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to contain %q", err, want)
		}
	}
	cutter, err := NewRequestCutter(6, 0, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.RunBroadcast(sim.BroadcastConfig{
		Assign: assign, Factory: core.NewFlooding(0), Adversary: cutter, MaxRounds: 10,
	})
	wantRound1(err, cutter.Name())
	for _, adv := range []sim.Adversary{NewFreeEdge(true, 1, 1), NewFreeEdge(false, 1, 1), NewWeakFreeEdge(1)} {
		_, err := sim.RunUnicast(sim.UnicastConfig{
			Assign: assign, Factory: core.NewMultiSource(), Adversary: adv, MaxRounds: 10,
		})
		wantRound1(err, adv.Name())
	}
}
