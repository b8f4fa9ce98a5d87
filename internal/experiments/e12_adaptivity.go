package experiments

import (
	"fmt"

	"dynspread/internal/adversary"
	"dynspread/internal/core"
	"dynspread/internal/sim"
	"dynspread/internal/tablefmt"
	"dynspread/internal/token"
)

// E12Adaptivity probes footnote 4 of the paper: the strongly adaptive
// adversary sees the current round's (random) broadcast choices, the weakly
// adaptive one only the previous round's, which it takes as its prediction.
// Footnote 4 says the two coincide for deterministic algorithms, but this
// prediction is not exact even for flooding, whose choices change at window
// boundaries and whenever a node learns its window's token: the mispredict
// column reads above 0 for flooding too. For the randomized broadcaster the
// weak adversary mispredicts far more and non-free communication slips
// through, so dissemination gets cheaper and faster — an empirical
// separation of the two adversary classes.
func E12Adaptivity(cfg Config) (*tablefmt.Table, error) {
	ns := cfg.pick([]int{16, 24}, []int{16, 24, 32, 48})
	tb := &tablefmt.Table{
		Title:  "E12 (footnote 4): strongly vs weakly adaptive free-edge adversary",
		Header: []string{"n", "algorithm", "adversary", "completed", "rounds", "broadcasts", "amortized/token", "mispredict rate"},
	}
	for _, n := range ns {
		assign, err := token.Gossip(n)
		if err != nil {
			return nil, err
		}
		type combo struct {
			algName string
			factory sim.BroadcastFactory
		}
		for _, c := range []combo{
			{"flooding (deterministic)", core.NewFlooding()},
			{"random broadcast", core.NewRandomBroadcast()},
		} {
			// Strongly adaptive.
			strong := adversary.NewFreeEdge(cfg.Seed + int64(n))
			res, err := sim.Run(sim.Config{
				Assign:    assign,
				Broadcast: c.factory,
				Adversary: strong,
				Seed:      cfg.Seed,
				MaxRounds: 6 * n * n,
			})
			if err != nil {
				return nil, err
			}
			if !strong.SetupOK() {
				return nil, fmt.Errorf("Theorem 2.3's setup event Φ(0) ≤ 0.8nk failed at n=%d (%s) under the %s adversary", n, c.algName, strong.Name())
			}
			tb.AddRowf(n, c.algName, "strong", res.Completed, res.Rounds,
				res.Metrics.Broadcasts, res.Metrics.AmortizedPerToken(n), "n/a")

			// Weakly adaptive.
			weak := adversary.NewWeakFreeEdge(cfg.Seed + int64(n) + 1)
			res2, err := sim.Run(sim.Config{
				Assign:    assign,
				Broadcast: c.factory,
				Adversary: weak,
				Seed:      cfg.Seed,
				MaxRounds: 6 * n * n,
			})
			if err != nil {
				return nil, err
			}
			if !weak.SetupOK() {
				return nil, fmt.Errorf("Theorem 2.3's setup event Φ(0) ≤ 0.8nk failed at n=%d (%s) under the %s adversary", n, c.algName, weak.Name())
			}
			tb.AddRowf(n, c.algName, "weak", res2.Completed, res2.Rounds,
				res2.Metrics.Broadcasts, res2.Metrics.AmortizedPerToken(n),
				fmt.Sprintf("%.3f", weak.MispredictRate()))
		}
	}
	tb.Notes = "For deterministic flooding weak ≈ strong (footnote 4: \"for deterministic algorithms, both adversaries " +
		"are the same\" — residual differences come from the one-round prediction lag at window boundaries). " +
		"For the randomized broadcaster the weak adversary mispredicts and loses much of its blocking power."
	return tb, nil
}
