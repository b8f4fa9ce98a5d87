package adversary

import (
	"testing"

	"dynspread/internal/graph"
	"dynspread/internal/registry"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

type silentUnicast struct{}

func (silentUnicast) BeginRound(int, []graph.NodeID) {}
func (silentUnicast) Send(int) []sim.Message         { return nil }
func (silentUnicast) Deliver(int, []sim.Message)     {}

type silentBroadcast struct{}

func (silentBroadcast) Choose(int) token.ID     { return token.None }
func (silentBroadcast) Deliver(int, []token.ID) {}

// TestRegisteredAdversariesLeaveServedGraphsAlone runs every registered
// adversary, in each of its registered modes, for 200 rounds under a silent
// protocol: none may change a graph it served before the engine has diffed
// the next round against it (the engine fails the run if one does). New
// registrations are covered automatically.
func TestRegisteredAdversariesLeaveServedGraphsAlone(t *testing.T) {
	const n, k, rounds = 12, 4, 200
	assign, err := token.SingleSource(n, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range registry.Adversaries() {
		for _, mode := range []registry.Mode{registry.Unicast, registry.Broadcast} {
			if !spec.Modes.Has(mode) {
				continue
			}
			t.Run(spec.Name+"/"+mode.String(), func(t *testing.T) {
				adv, err := spec.New(registry.Params{N: n, K: k, Sources: 1, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				var res *sim.Result
				if mode == registry.Unicast {
					res, err = sim.Run(sim.Config{
						Assign:    assign,
						Unicast:   func(sim.NodeEnv) sim.Protocol { return silentUnicast{} },
						Adversary: adv,
						MaxRounds: rounds,
					})
				} else {
					res, err = sim.Run(sim.Config{
						Assign:    assign,
						Broadcast: func(sim.NodeEnv) sim.BroadcastProtocol { return silentBroadcast{} },
						Adversary: adv,
						MaxRounds: rounds,
					})
				}
				if err != nil {
					t.Fatal(err)
				}
				if res.Rounds != rounds {
					t.Fatalf("ran %d rounds, want %d", res.Rounds, rounds)
				}
			})
		}
	}
}
