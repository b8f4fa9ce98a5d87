// Command lowerbound runs the Section 2 lower-bound construction with full
// per-round tracing: flooding (or a random broadcaster) against the strongly
// adaptive free-edge adversary, recording per round the number of
// broadcasters, the edge count and the token learnings, whose running sum is
// the growth of the potential Φ(t). The CSV output plots the staircase growth
// of the potential that the Ω(n²/log²n) amortized-message bound rests on.
//
// Usage:
//
//	lowerbound -n 32 -alg flooding        # summary to stderr, CSV to stdout
//	lowerbound -n 32 -csv=false           # summary only
//
// The broadcast algorithm and the free-edge adversary are resolved through
// the component registry ("random" is accepted as shorthand for
// "random-broadcast").
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"dynspread/internal/adversary"
	_ "dynspread/internal/core" // register the bundled algorithms
	"dynspread/internal/registry"
	"dynspread/internal/sim"
	"dynspread/internal/token"
)

func main() {
	var (
		n       = flag.Int("n", 32, "number of nodes (k = n, n-gossip start)")
		alg     = flag.String("alg", "flooding", "broadcast algorithm: flooding | random-broadcast")
		seed    = flag.Int64("seed", 1, "random seed")
		emitCSV = flag.Bool("csv", true, "emit per-round CSV to stdout")
	)
	flag.Parse()

	assign, err := token.Gossip(*n)
	if err != nil {
		fatal(err)
	}
	algName := *alg
	if algName == "random" { // historical shorthand
		algName = "random-broadcast"
	}
	params := registry.Params{N: *n, K: *n, Sources: *n, Seed: *seed}
	algSpec, err := registry.LookupAlgorithm(algName)
	if err != nil {
		fatal(err)
	}
	if algSpec.Mode != registry.Broadcast {
		fatal(fmt.Errorf("%q is not a broadcast algorithm", algName))
	}
	factory, err := algSpec.Broadcast(params)
	if err != nil {
		fatal(err)
	}
	advSpec, err := registry.LookupAdversary("free-edge")
	if err != nil {
		fatal(err)
	}
	badv, err := advSpec.New(params)
	if err != nil {
		fatal(err)
	}
	// The tracer needs the adversary's potential-function bookkeeping, which
	// only the concrete free-edge type exposes.
	adv, ok := badv.(*adversary.FreeEdge)
	if !ok {
		fatal(fmt.Errorf("free-edge registry entry built a %T, not *adversary.FreeEdge", badv))
	}

	// A stride-1 flight recorder with one slot per round of the cap keeps
	// every round's sample.
	maxRounds := 8 * (*n) * (*n)
	rec := sim.NewRecorder(sim.RecorderConfig{Stride: 1, Capacity: maxRounds})
	res, err := sim.RunBroadcast(sim.BroadcastConfig{
		Assign:    assign,
		Factory:   factory,
		Adversary: adv,
		Seed:      *seed,
		MaxRounds: maxRounds,
		Recorder:  rec,
	})
	if err != nil {
		fatal(err)
	}

	st := adv.Stats()
	fmt.Fprintf(os.Stderr, "n=%d k=%d alg=%s adversary=%s\n", *n, *n, algName, adv.Name())
	fmt.Fprintf(os.Stderr, "completed=%v rounds=%d broadcasts=%d amortized=%.1f msgs/token (n²=%d)\n",
		res.Completed, res.Rounds, res.Metrics.Broadcasts,
		res.Metrics.AmortizedPerToken(*n), (*n)*(*n))
	fmt.Fprintf(os.Stderr, "Φ(0)=%d  maxΦ=%d  max components=%d  sparse rounds=%d (ΔΦ=%d)  bound violations=%d\n",
		st.InitialPhi, int64(*n)*int64(*n), st.MaxComponents, st.SparseRounds, st.SparseProgress, st.BoundViolations)
	if !adv.SetupOK() {
		fmt.Fprintln(os.Stderr, "warning: Φ(0) > 0.8nk — probabilistic-method event failed")
	}
	if *emitCSV {
		writeCSV(os.Stdout, rec.Snapshot().Samples)
	}
}

// writeCSV renders one row per round: the broadcasters, the edge count of
// the round's graph (the running sum of insertions minus removals from the
// empty graph G_0), and the token learnings.
func writeCSV(out io.Writer, samples []sim.RoundSample) {
	w := bufio.NewWriter(out)
	fmt.Fprintln(w, "round,broadcasters,edges,learnings")
	var edges int64
	for _, s := range samples {
		edges += s.TC - s.Removals
		fmt.Fprintf(w, "%d,%g,%g,%g\n", s.Round, float64(s.Broadcasts), float64(edges), float64(s.Learned))
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lowerbound:", err)
	os.Exit(1)
}
