package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynspread/internal/tablefmt"
)

var update = flag.Bool("update", false, "rewrite testdata/quick-seed*.md from this code's tables")

// quickSeeds are the seeds whose quick tables testdata pins.
var quickSeeds = []int64{1, 2, 3}

func TestAllRunnersListed(t *testing.T) {
	rs := All()
	if len(rs) != 13 {
		t.Fatalf("got %d runners, want 13", len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if r.ID == "" || r.Name == "" || r.Run == nil {
			t.Fatalf("malformed runner %+v", r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate ID %s", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestConfigDefaults(t *testing.T) {
	if (Config{Quick: true}).trials() != 1 {
		t.Fatal("quick trials != 1")
	}
	if (Config{}).trials() != 3 {
		t.Fatal("full trials != 3")
	}
	if (Config{Trials: 7}).trials() != 7 {
		t.Fatal("explicit trials ignored")
	}
	got := Config{Quick: true}.pick([]int{1}, []int{2})
	if len(got) != 1 || got[0] != 1 {
		t.Fatal("pick quick wrong")
	}
}

// TestExperimentsQuickSmoke runs every E1–E13 entry point at quick (tiny-N)
// scale at each of quickSeeds and asserts each produces a non-empty,
// renderable table without error. These are integration tests across the
// whole stack (engine, adversaries, algorithms, sweep); the subtests run in
// parallel since each experiment is independent. Once all have run, each
// seed's tables, rendered as cmd/experiments prints them, must equal
// testdata/quick-seedS.md byte for byte, which is the output of
// "go run ./cmd/experiments -quick -seed S". A change that moves a number
// fails here; "go test ./internal/experiments -update" rewrites the files,
// and the diff is then the change's table diff.
func TestExperimentsQuickSmoke(t *testing.T) {
	rs := All()
	if len(rs) != 13 {
		t.Fatalf("got %d runners, want the paper's 13 (E1–E13)", len(rs))
	}
	tables := make([][]*tablefmt.Table, len(quickSeeds)) // [seed][runner]
	for i := range tables {
		tables[i] = make([]*tablefmt.Table, len(rs))
	}
	// Cleanup runs after every parallel subtest has finished.
	t.Cleanup(func() { checkQuickTables(t, tables) })
	for ri, r := range rs {
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			for si, seed := range quickSeeds {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					t.Parallel()
					tb, err := r.Run(Config{Quick: true, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					if tb.Title == "" || len(tb.Header) == 0 || len(tb.Rows) == 0 {
						t.Fatalf("%s produced empty table", r.ID)
					}
					for i, row := range tb.Rows {
						if len(row) != len(tb.Header) {
							t.Fatalf("%s row %d has %d cells for %d columns", r.ID, i, len(row), len(tb.Header))
						}
					}
					// Render paths must not panic and must contain the data.
					if !strings.Contains(tb.Markdown(), tb.Rows[0][0]) {
						t.Fatalf("%s markdown missing first cell", r.ID)
					}
					tables[si][ri] = tb
				})
			}
		})
	}
}

// checkQuickTables compares each seed's tables with its testdata file, or
// rewrites the file under -update. A seed with a failed experiment is
// skipped: its subtest has already failed.
func checkQuickTables(t *testing.T, tables [][]*tablefmt.Table) {
seeds:
	for si, seed := range quickSeeds {
		var b strings.Builder
		for _, tb := range tables[si] {
			if tb == nil {
				continue seeds
			}
			b.WriteString(tb.Markdown())
			b.WriteString("\n") // cmd/experiments prints each table with Println
		}
		path := filepath.Join("testdata", fmt.Sprintf("quick-seed%d.md", seed))
		if *update {
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Error(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%v (go test -update writes it)", err)
			continue
		}
		if got := b.String(); got != string(want) {
			t.Errorf("seed %d: quick tables differ from %s (go test -update rewrites it) at line %s", seed, path, firstDiff(got, string(want)))
		}
	}
}

// firstDiff describes the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("%d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "?"
}

// The runner list is the contract cmd/experiments and EXPERIMENTS.md rely
// on: one entry per paper artifact, in paper order.
func TestRunAllOrder(t *testing.T) {
	rs := All()
	for i, want := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"} {
		if rs[i].ID != want {
			t.Fatalf("runner %d is %s, want %s (cmd/experiments prints them in paper order)", i, rs[i].ID, want)
		}
	}
}

// TestFirstRise pins E6's monotonicity check: a 20% rise over the previous
// k fails the 15% allowance, a 14% rise and any fall pass.
func TestFirstRise(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want int
	}{
		{[]float64{400, 300, 360}, 2},
		{[]float64{100, 120, 90}, 1},
		{[]float64{400, 456, 300}, -1},
		{[]float64{430, 406, 307}, -1},
		{[]float64{5}, -1},
		{nil, -1},
	} {
		if got := firstRise(tc.xs, 1.15); got != tc.want {
			t.Errorf("firstRise(%v, 1.15) = %d, want %d", tc.xs, got, tc.want)
		}
	}
}
