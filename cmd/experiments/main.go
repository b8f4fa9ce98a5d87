// Command experiments regenerates every table and figure of the paper's
// evaluation (the internal/experiments package doc holds the per-experiment
// index) and prints them as markdown (default) or aligned ASCII. Its markdown output is the source
// of EXPERIMENTS.md.
//
// Usage:
//
//	experiments              # full scale, markdown
//	experiments -quick       # small instances, seconds
//	experiments -only E3,E4  # subset
//	experiments -ascii       # terminal tables
//	experiments -csvdir out  # additionally write one CSV per experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dynspread/internal/experiments"
)

func main() {
	var (
		quick  = flag.Bool("quick", false, "run small instances (seconds instead of minutes)")
		ascii  = flag.Bool("ascii", false, "render aligned ASCII instead of markdown")
		only   = flag.String("only", "", "comma-separated experiment IDs (e.g. E1,E6)")
		seed   = flag.Int64("seed", 42, "random seed")
		csvDir = flag.String("csvdir", "", "directory to also write one CSV per experiment (created if missing)")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	failed := false
	for _, r := range experiments.All() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s: %s ...\n", r.ID, r.Name)
		tb, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", r.ID, err)
			failed = true
			continue
		}
		if *ascii {
			fmt.Println(tb.ASCII())
		} else {
			fmt.Println(tb.Markdown())
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "csvdir: %v\n", err)
				failed = true
				continue
			}
			path := filepath.Join(*csvDir, strings.ToLower(r.ID)+".csv")
			if err := os.WriteFile(path, []byte(tb.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "csv %s: %v\n", path, err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
