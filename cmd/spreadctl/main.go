// Command spreadctl is the operator's client for the spreadd/cluster tier:
// it submits trial grids, enumerates and watches jobs, and runs resumable
// client-side distributed sweeps against a pool of workers.
//
//	spreadctl submit -server http://localhost:8080 -grid grid.json -watch
//	spreadctl jobs   -server http://localhost:8080
//	spreadctl job    -server http://localhost:8080 -id j482913057000003
//	spreadctl watch  -server http://localhost:8080 j482913057000003
//	spreadctl top    -server http://localhost:8080
//	spreadctl trace  -server http://localhost:8080 j482913057000003
//	spreadctl sweep  -workers localhost:8081,localhost:8082 \
//	                 -store ./results -grid grid.json -out results.json
//	spreadctl catalog -server http://localhost:8080
//
// A grid file is the wire GridSpec JSON (the same object POST /v1/runs
// accepts under "grid"); "-" reads it from stdin:
//
//	{"ns": [32, 64], "ks": [32], "algorithms": ["single-source"],
//	 "adversaries": ["churn"], "seeds": [1, 2, 3]}
//
// submit drives one server (which may itself be a -peers coordinator);
// sweep embeds the coordinator in the client, so any pool of plain spreadd
// workers becomes a cluster with no coordinator daemon, and -store makes
// the sweep resumable: re-running after an interruption (or re-running a
// finished grid) skips every trial whose result is already on disk.
// Results go to stdout (or -out) as a JSON array in deterministic grid
// order; progress and summaries go to stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dynspread/internal/cluster"
	"dynspread/internal/service"
	"dynspread/internal/store"
	"dynspread/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch cmd := os.Args[1]; cmd {
	case "submit":
		err = cmdSubmit(ctx, os.Args[2:])
	case "jobs":
		err = cmdJobs(ctx, os.Args[2:])
	case "job":
		err = cmdJob(ctx, os.Args[2:])
	case "watch":
		err = cmdWatch(ctx, os.Args[2:])
	case "inspect":
		err = cmdInspect(ctx, os.Args[2:])
	case "top":
		err = cmdTop(ctx, os.Args[2:])
	case "trace":
		err = cmdTrace(ctx, os.Args[2:])
	case "sweep":
		err = cmdSweep(ctx, os.Args[2:])
	case "catalog":
		err = cmdCatalog(ctx, os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "spreadctl: unknown command %q\n\n", cmd)
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "spreadctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: spreadctl <command> [flags]

commands:
  submit   submit a grid to one server (-server, -grid, [-async] [-watch] [-out])
  jobs     list a server's jobs with status counts (-server)
  job      show one job (-server, -id)
  watch    stream a job live over JSONL (-server, -id or positional, [-out])
  inspect  render a recorded job's per-round dynamics as terminal sparklines
           (-server, -id or positional, [-width n] [-table])
  top      refreshing one-screen server view from /v1/metrics (-server,
           [-interval d] [-once])
  trace    render a job's distributed trace as a waterfall (-server,
           -id or positional job/trace ID)
  sweep    distributed client-side sweep over workers (-workers, -grid,
           [-store dir] [-shard-size n] [-out file])
  catalog  list a server's registered algorithms/adversaries/scenarios (-server)
`)
	os.Exit(2)
}

func newClient(server string) (*service.Client, error) {
	server = service.NormalizeBaseURL(server)
	if server == "" {
		return nil, fmt.Errorf("-server is required")
	}
	return &service.Client{BaseURL: server, Timeout: 2 * time.Minute}, nil
}

// readGrid loads a GridSpec from path ("-" = stdin).
func readGrid(path string) (*wire.GridSpec, error) {
	if path == "" {
		return nil, fmt.Errorf("-grid is required (a GridSpec JSON file, or - for stdin)")
	}
	var rd io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rd = f
	}
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var g wire.GridSpec
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("decode grid: %w", err)
	}
	return &g, nil
}

// writeResults emits the result array as indented JSON to out ("" = stdout).
func writeResults(out string, results []wire.TrialResult) error {
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

func summarize(results []wire.TrialResult) {
	msgs := cluster.Aggregate(results, cluster.Messages)
	rounds := cluster.Aggregate(results, cluster.Rounds)
	amort := cluster.Aggregate(results, cluster.AmortizedPerToken)
	fmt.Fprintf(os.Stderr, "trials    %d\n", len(results))
	fmt.Fprintf(os.Stderr, "messages  mean %.1f  median %.1f  max %.0f\n", msgs.Mean, msgs.Median, msgs.Max)
	fmt.Fprintf(os.Stderr, "rounds    mean %.1f  median %.1f  max %.0f\n", rounds.Mean, rounds.Median, rounds.Max)
	fmt.Fprintf(os.Stderr, "amortized mean %.2f messages/token\n", amort.Mean)
}

func cmdSubmit(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	server := fs.String("server", "", "spreadd base URL")
	grid := fs.String("grid", "", "GridSpec JSON file (- for stdin)")
	async := fs.Bool("async", false, "force queued (202) execution")
	watch := fs.Bool("watch", false, "follow a queued job until it finishes and print its results, as spreadctl watch does")
	out := fs.String("out", "", "write results JSON here instead of stdout")
	record := fs.Bool("record", false, "attach a flight recorder: every trial's result carries a per-round dynamics series (inspect with `spreadctl inspect`); recorded jobs bypass the server's result cache")
	recordStride := fs.Int("record-stride", 0, "record every Nth round (0 = every round; implies -record)")
	recordCapacity := fs.Int("record-capacity", 0, "recorder ring capacity in samples, keeping the last N (0 = server default; implies -record)")
	fs.Parse(args)

	c, err := newClient(*server)
	if err != nil {
		return err
	}
	g, err := readGrid(*grid)
	if err != nil {
		return err
	}
	req := wire.RunRequest{Grid: g, Async: *async}
	if *record || *recordStride > 0 || *recordCapacity > 0 {
		req.Record = &wire.RecordSpec{Stride: *recordStride, Capacity: *recordCapacity}
	}
	st, err := c.Run(ctx, req)
	if err != nil {
		return err
	}
	if st.State == service.JobDone {
		summarize(st.Results)
		return writeResults(*out, st.Results)
	}
	fmt.Fprintf(os.Stderr, "job %s %s (%d trials)\n", st.ID, st.State, st.Total)
	if !*watch {
		fmt.Fprintf(os.Stderr, "follow with: spreadctl job -server %s -id %s\n", *server, st.ID)
		return nil
	}
	return followAndWrite(ctx, c, st.ID, *out)
}

func cmdJobs(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("jobs", flag.ExitOnError)
	server := fs.String("server", "", "spreadd base URL")
	fs.Parse(args)
	c, err := newClient(*server)
	if err != nil {
		return err
	}
	jl, err := c.Jobs(ctx)
	if err != nil {
		return err
	}
	for _, st := range jl.Jobs {
		fmt.Printf("%-10s %-8s %5d/%-5d", st.ID, st.State, st.Completed, st.Total)
		if st.Error != "" {
			fmt.Printf("  %s", st.Error)
		}
		fmt.Println()
	}
	var states []string
	for state, n := range jl.ByState {
		states = append(states, fmt.Sprintf("%s=%d", state, n))
	}
	if len(states) > 0 {
		fmt.Fprintf(os.Stderr, "%d jobs (%s)\n", len(jl.Jobs), strings.Join(states, " "))
	} else {
		fmt.Fprintln(os.Stderr, "no jobs")
	}
	return nil
}

func cmdJob(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("job", flag.ExitOnError)
	server := fs.String("server", "", "spreadd base URL")
	id := fs.String("id", "", "job ID")
	out := fs.String("out", "", "write results JSON here instead of stdout")
	fs.Parse(args)
	c, err := newClient(*server)
	if err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	st, err := c.Job(ctx, *id)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "job %s %s %d/%d", st.ID, st.State, st.Completed, st.Total)
	if st.Error != "" {
		fmt.Fprintf(os.Stderr, " (%s)", st.Error)
	}
	fmt.Fprintln(os.Stderr)
	if st.State == service.JobDone {
		return writeResults(*out, st.Results)
	}
	return nil
}

func cmdSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	workers := fs.String("workers", "", "comma-separated spreadd worker base URLs")
	grid := fs.String("grid", "", "GridSpec JSON file (- for stdin)")
	storeDir := fs.String("store", "", "persistent result-store directory; makes the sweep resumable")
	shardSize := fs.Int("shard-size", 0, "trials per shard (0 = default)")
	out := fs.String("out", "", "write results JSON here instead of stdout")
	fs.Parse(args)

	pool := service.SplitBaseURLs(*workers)
	if len(pool) == 0 {
		return fmt.Errorf("-workers is required")
	}
	g, err := readGrid(*grid)
	if err != nil {
		return err
	}
	specs, err := g.Trials()
	if err != nil {
		return err
	}

	ccfg := cluster.Config{Workers: pool, ShardSize: *shardSize}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		ccfg.Store = st
		fmt.Fprintf(os.Stderr, "store %s: %d results on disk\n", *storeDir, st.Len())
	}
	coord, err := cluster.New(ccfg)
	if err != nil {
		return err
	}

	start := time.Now()
	var completed atomic.Int64
	results, err := coord.Run(ctx, specs, func(int, wire.TrialResult) {
		// The callback is concurrent; the atomic carries the count and only
		// round counts draw, so interleaved writes stay readable.
		n := completed.Add(1)
		if n%10 == 0 || int(n) == len(specs) {
			fmt.Fprintf(os.Stderr, "\r%d/%d trials", n, len(specs))
		}
	})
	fmt.Fprintln(os.Stderr)
	if err != nil {
		if *storeDir != "" {
			fmt.Fprintf(os.Stderr, "sweep interrupted; re-run the same command to resume from %s\n", *storeDir)
		}
		return err
	}
	st := coord.Stats()
	alive, total := coord.Workers()
	fmt.Fprintf(os.Stderr, "done in %s: %d store hits, %d dispatched over %d shards (%d retries, workers %d/%d alive, %d worker cache hits)\n",
		time.Since(start).Round(time.Millisecond), st.StoreHits, st.Dispatched, st.Shards, st.Retries, alive, total, st.WorkerCacheHits)
	summarize(results)
	return writeResults(*out, results)
}

func cmdCatalog(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("catalog", flag.ExitOnError)
	server := fs.String("server", "", "spreadd base URL")
	fs.Parse(args)
	c, err := newClient(*server)
	if err != nil {
		return err
	}
	cat, err := c.Catalog(ctx)
	if err != nil {
		return err
	}
	fmt.Println("algorithms:")
	for _, a := range cat.Algorithms {
		fmt.Printf("  %-18s (%s)  %s\n", a.Name, a.Mode, a.Doc)
	}
	fmt.Println("adversaries:")
	for _, a := range cat.Adversaries {
		fmt.Printf("  %-18s (%s)  %s\n", a.Name, a.Modes, a.Doc)
	}
	fmt.Println("scenarios:")
	for _, s := range cat.Scenarios {
		fmt.Printf("  %-18s n=%-5d k=%-5d %s\n", s.Name, s.N, s.K, s.Doc)
	}
	return nil
}
