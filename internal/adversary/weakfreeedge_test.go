package adversary

import (
	"testing"

	"dynspread/internal/core"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

func TestWeakFreeEdgeFloodingCompletes(t *testing.T) {
	n := 16
	assign, err := token.Gossip(n)
	if err != nil {
		t.Fatal(err)
	}
	adv := NewWeakFreeEdge(3)
	res, err := sim.Run(sim.Config{
		Assign:    assign,
		Broadcast: core.NewFlooding(),
		Adversary: adv,
		Seed:      1,
		MaxRounds: 4 * n * n,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("flooding incomplete under weak adversary")
	}
	if !adv.SetupOK() {
		t.Fatal("setup failed")
	}
	// Flooding is deterministic per round given knowledge, but the
	// adversary's one-round lag still mispredicts at window boundaries and
	// when knowledge grows; the rate must be small but the counter sane.
	if r := adv.MispredictRate(); r < 0 || r > 1 {
		t.Fatalf("mispredict rate %g out of range", r)
	}
}

func TestWeakFreeEdgeMispredictsRandomized(t *testing.T) {
	n := 16
	assign, err := token.Gossip(n)
	if err != nil {
		t.Fatal(err)
	}
	adv := NewWeakFreeEdge(5)
	res, err := sim.Run(sim.Config{
		Assign:    assign,
		Broadcast: core.NewRandomBroadcast(),
		Adversary: adv,
		Seed:      2,
		MaxRounds: 6 * n * n,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("random broadcast incomplete under weak adversary")
	}
	// Randomized choices with growing knowledge: substantial misprediction.
	if adv.MispredictRate() < 0.1 {
		t.Fatalf("mispredict rate %g suspiciously low for a randomized algorithm", adv.MispredictRate())
	}
}

func TestWeakFreeEdgeZeroRateBeforeRun(t *testing.T) {
	if NewWeakFreeEdge(1).MispredictRate() != 0 {
		t.Fatal("rate before any round should be 0")
	}
}
