// Command spreadsim runs one k-token dissemination simulation and prints the
// communication-cost report.
//
// Usage:
//
//	spreadsim -n 64 -k 128 -s 1 -alg single-source -adv churn -seed 1
//	spreadsim -scenario token-stream -seed 3       # registered workload
//	spreadsim -scenario quickstart -record run.jsonl
//	spreadsim -replay run.jsonl -alg single-source # replay recorded dynamics
//	spreadsim -scenario streaming -json            # machine-readable result
//	spreadsim -n 64 -k 64 -remote http://host:8080 # execute on a spreadd
//	spreadsim -list   # print every registered algorithm, adversary, scenario
//
// Algorithms, adversaries, and scenarios are resolved through their
// registries; -list shows everything the binary was built with. -record
// writes the run's per-round edge events as JSONL; -replay substitutes such
// a trace for the adversary, reproducing the recorded topology exactly (and,
// with the same algorithm and seed, the recorded metrics). -json emits one
// JSON object on stdout — the resolved trial plus its metrics, in the same
// per-trial result schema the spreadd service returns (see
// internal/service), so scripted pipelines can consume either
// interchangeably.
//
// -remote sends the SAME invocation to a spreadd daemon (or a -peers
// cluster coordinator) instead of simulating in-process: the trial travels
// as its wire spec, and the result comes back through the identical output
// path — the human report or, with -json, the identical TrialResult object.
// Runs are deterministic functions of their spec, so local and remote
// execution of one invocation print the same numbers. -record and -replay
// stay local-only: graph traces are not part of the wire schema.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dynspread"
	"dynspread/internal/registry"
	"dynspread/internal/scenario"
	"dynspread/internal/service"
)

func main() {
	var (
		n         = flag.Int("n", 32, "number of nodes")
		k         = flag.Int("k", 32, "number of tokens")
		s         = flag.Int("s", 1, "number of source nodes")
		alg       = flag.String("alg", "single-source", "algorithm (see -list)")
		adv       = flag.String("adv", "churn", "adversary (see -list)")
		scen      = flag.String("scenario", "", "registered scenario; supplies shape, dynamics, and arrival schedule (see -list)")
		seed      = flag.Int64("seed", 1, "random seed")
		maxRounds = flag.Int("max-rounds", 0, "round cap (0 = generous default)")
		sigma     = flag.Int("sigma", 3, "edge stability for the churn adversary")
		record    = flag.String("record", "", "write the run's dynamics as a JSONL graph trace to this file")
		replay    = flag.String("replay", "", "replay a JSONL graph trace as the dynamics (overrides -adv)")
		remote    = flag.String("remote", "", "execute on this spreadd/cluster base URL instead of in-process")
		asJSON    = flag.Bool("json", false, "emit one JSON object: resolved trial + metrics (the spreadd TrialResult schema)")
		list      = flag.Bool("list", false, "list registered algorithms, adversaries, and scenarios, then exit")
	)
	flag.Parse()
	flagSet := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { flagSet[f.Name] = true })

	if *list {
		fmt.Println("algorithms:")
		for _, spec := range registry.Algorithms() {
			fmt.Printf("  %-18s (%s)  %s\n", spec.Name, spec.Mode(), spec.Doc)
		}
		fmt.Println("adversaries:")
		for _, spec := range registry.Adversaries() {
			fmt.Printf("  %-18s (%s)  %s\n", spec.Name, spec.Modes, spec.Doc)
		}
		fmt.Println("scenarios:")
		for _, spec := range scenario.Scenarios() {
			fmt.Printf("  %-18s n=%-5d k=%-5d s=%-4d %-14s arrivals=%-34s alg=%s\n",
				spec.Name, spec.N, spec.K, spec.NumSources(), spec.Adversary, spec.ScheduleName(), spec.DefaultAlgorithm)
			fmt.Printf("  %-18s %s\n", "", spec.Doc)
		}
		return
	}

	cfg := dynspread.Config{
		Seed:      *seed,
		MaxRounds: *maxRounds,
		Sigma:     *sigma,
	}
	if *scen != "" {
		// The scenario defines the shape and the defaults; -alg, -adv, and
		// -sigma act as overrides only when given explicitly.
		cfg.Scenario = dynspread.Scenario(*scen)
		if !flagSet["sigma"] {
			cfg.Sigma = 0 // let the scenario's own Sigma apply
		}
		if flagSet["alg"] {
			cfg.Algorithm = dynspread.Algorithm(*alg)
		}
		if flagSet["adv"] {
			cfg.Adversary = dynspread.Adversary(*adv)
		}
		for _, name := range []string{"n", "k", "s"} {
			if flagSet[name] {
				fatalf("-%s cannot be combined with -scenario (the scenario defines the shape)", name)
			}
		}
	} else {
		cfg.N, cfg.K, cfg.Sources = *n, *k, *s
		cfg.Algorithm = dynspread.Algorithm(*alg)
		cfg.Adversary = dynspread.Adversary(*adv)
	}
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatalf("%v", err)
		}
		tr, err := dynspread.ReadTrace(f)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Replay = tr
	}

	// Execute: in-process by default, on a spreadd daemon with -remote.
	// Either way the rest of main consumes one TrialResult, so the output
	// paths (-json and the human report) are shared verbatim.
	var (
		res *dynspread.TrialResult
		err error
	)
	if *remote != "" {
		if *record != "" || *replay != "" {
			fatalf("-record/-replay cannot be combined with -remote (graph traces are not part of the wire schema)")
		}
		res, err = runRemote(cfg, *remote)
	} else if *record != "" {
		var tr *dynspread.GraphTrace
		res, tr, err = dynspread.RunRecorded(cfg)
		if err == nil {
			err = writeTrace(*record, tr)
		}
	} else {
		res, err = dynspread.Run(cfg)
	}
	if err != nil {
		fatalf("%v", err)
	}

	if *asJSON {
		// One JSON object on stdout: the resolved trial plus metrics, in the
		// spreadd service's per-trial result schema (dynspread.TrialResult).
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *scen != "" {
		fmt.Printf("scenario       %s\n", *scen)
	}
	algName := *alg
	if *scen != "" && !flagSet["alg"] {
		algName = "(scenario default)"
	}
	fmt.Printf("algorithm      %s\n", algName)
	fmt.Printf("adversary      %s\n", res.Adversary)
	if *remote != "" {
		fmt.Printf("executed on    %s\n", *remote)
	}
	if *scen == "" {
		fmt.Printf("instance       n=%d k=%d s=%d seed=%d\n", *n, *k, *s, *seed)
	} else {
		fmt.Printf("instance       seed=%d\n", *seed)
	}
	fmt.Printf("completed      %v in %d rounds\n", res.Completed, res.Rounds)
	m := res.Metrics
	fmt.Printf("messages       %d (tokens %d, requests %d, completeness %d, walks %d, control %d)\n",
		m.Messages, m.TokenPayloads, m.RequestPayloads, m.CompletenessPayloads, m.WalkPayloads, m.ControlPayloads)
	fmt.Printf("broadcasts     %d\n", m.Broadcasts)
	fmt.Printf("learnings      %d\n", m.Learnings)
	fmt.Printf("TC(E)          %d insertions, %d removals\n", m.TC, m.Removals)
	fmt.Printf("amortized      %.2f messages/token\n", res.AmortizedPerToken)
	fmt.Printf("competitive    %.0f residual (Messages − 1·TC)\n", res.CompetitiveResidual)
	if *record != "" {
		fmt.Printf("recorded       %d rounds of dynamics -> %s\n", res.Rounds, *record)
	}
}

// runRemote executes the invocation's wire spec on a spreadd daemon via the
// service client, waiting out queued jobs. The spec carries exactly what
// the flags resolved to (classic runs always have a concrete algorithm and
// adversary from the flag defaults; scenario runs leave blanks for the
// scenario's own defaults), so local and remote execution run the same
// trial.
func runRemote(cfg dynspread.Config, base string) (*dynspread.TrialResult, error) {
	spec := dynspread.TrialSpec{
		Scenario:  string(cfg.Scenario),
		N:         cfg.N,
		K:         cfg.K,
		Sources:   cfg.Sources,
		Algorithm: string(cfg.Algorithm),
		Adversary: string(cfg.Adversary),
		Seed:      cfg.Seed,
		MaxRounds: cfg.MaxRounds,
		Sigma:     cfg.Sigma,
	}
	client := &service.Client{BaseURL: service.NormalizeBaseURL(base), Timeout: 2 * time.Minute}
	ctx := context.Background()
	st, err := client.Run(ctx, dynspread.RunRequest{Trials: []dynspread.TrialSpec{spec}})
	if err != nil {
		return nil, err
	}
	if st.State != service.JobDone {
		if st, err = client.WaitJob(ctx, st.ID, 0); err != nil {
			return nil, err
		}
	}
	if st.State != service.JobDone {
		return nil, fmt.Errorf("remote job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if len(st.Results) != 1 {
		return nil, fmt.Errorf("remote job %s returned %d results for 1 trial", st.ID, len(st.Results))
	}
	return &st.Results[0], nil
}

func writeTrace(path string, tr *dynspread.GraphTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spreadsim: "+format+"\n", args...)
	os.Exit(1)
}
