// Mobile mesh: the paper's opening motivation — ad hoc wireless and mobile
// networks — made concrete as the registered "mobilemesh" scenario. Nodes
// drift through an arena; the communication graph is their proximity
// (unit-disk) graph. The example compares the cost of spreading one node's
// k tokens with Algorithm 1 against flooding on the same mobility trace,
// and shows the rotating-star topology as the everything-changes stress
// case (an -adv override of the same workload).
//
//	go run ./examples/mobilemesh
package main

import (
	"fmt"
	"log"

	"dynspread"
)

func main() {
	const (
		n = 40 // the scenario's shape: n nodes, k = 2n tokens, one source
		k = 80
	)

	fmt.Printf("mobile mesh: %d nodes drifting in an arena, %d tokens from one source\n\n", n, k)
	fmt.Printf("%-24s %-26s %8s %10s %12s %10s\n",
		"algorithm", "dynamics", "rounds", "messages", "amortized", "TC(E)")

	type runCase struct {
		name string
		cfg  dynspread.Config
	}
	for _, c := range []runCase{
		{"single-source (Alg. 1)", dynspread.Config{
			Scenario: dynspread.ScenMobileMesh, Seed: 4,
		}},
		{"flooding (broadcast)", dynspread.Config{
			Scenario: dynspread.ScenMobileMesh, Seed: 4,
			Algorithm: dynspread.AlgFlooding,
		}},
		{"single-source (Alg. 1)", dynspread.Config{
			Scenario: dynspread.ScenMobileMesh, Seed: 4,
			Adversary: dynspread.AdvRotatingStar,
		}},
	} {
		rep, err := dynspread.Run(c.cfg)
		if err != nil {
			log.Fatal(err)
		}
		if !rep.Completed {
			log.Fatalf("%s on %s: incomplete after %d rounds", c.name, rep.Adversary, rep.Rounds)
		}
		fmt.Printf("%-24s %-26s %8d %10d %12.1f %10d\n",
			c.name, rep.Adversary, rep.Rounds, rep.Metrics.Messages,
			rep.AmortizedPerToken, rep.Metrics.TC)
	}

	fmt.Println()
	fmt.Println("on the gently-drifting mesh Algorithm 1 pays roughly Θ(n) messages per")
	fmt.Println("token; flooding pays every node's radio every round. The rotating star")
	fmt.Println("rewires Θ(n) links per rotation — all charged to the adversary's TC")
	fmt.Println("budget, so Algorithm 1's competitive residual stays near n²+nk there too.")
}
