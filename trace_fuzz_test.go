package dynspread_test

import (
	"bytes"
	"reflect"
	"testing"

	"dynspread"
	"dynspread/internal/adversary"
	"dynspread/internal/sim"
)

// sameEvents compares two edge-event lists, treating nil and empty alike (an
// empty list is not written, so it reads back nil).
func sameEvents(a, b [][2]int) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// FuzzReadGraphTrace: the trace decoder behind dynspread.ReadTrace and
// spreadsim -replay never crashes, whatever the input. An accepted trace
// passes Validate, writing it and reading it back gives an equal trace, and
// replaying it serves, at every round r, the graph that rounds 1..r build
// from the empty graph (each round's adds before its deletes), with the last
// graph persisting past the end of the trace.
//
// Run with `go test -run '^$' -fuzz FuzzReadGraphTrace .` to explore; the
// seed corpus runs on every plain `go test`.
func FuzzReadGraphTrace(f *testing.F) {
	// A header whose node count once made Validate allocate a 2^40-node graph.
	f.Add([]byte(`{"format":"dynspread-graph-trace","version":1,"n":1099511627776}`))
	// A real recording: the golden single-source × churn row (golden_test.go).
	_, tr, err := dynspread.RunRecorded(dynspread.Config{
		N: 10, K: 10, Sources: 1,
		Algorithm: dynspread.AlgSingleSource,
		Adversary: dynspread.AdvChurn,
		Seed:      1,
		MaxRounds: 20000,
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// One round adds and deletes the same absent edge: valid only when adds
	// apply first, so a replay that deleted first would serve {0,1}.
	f.Add([]byte(`{"format":"dynspread-graph-trace","version":1,"n":3}
{"r":1,"add":[[0,1]],"del":[[0,1]]}
{"r":2,"add":[[0,1],[1,2]]}
`))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := dynspread.ReadTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatal(err)
		}
		back, err := dynspread.ReadTrace(&out)
		if err != nil {
			t.Fatalf("written trace does not read back: %v\n%s", err, out.Bytes())
		}
		if back.N != tr.N || len(back.Rounds) != len(tr.Rounds) {
			t.Fatalf("round trip changed the shape: n %d→%d, rounds %d→%d", tr.N, back.N, len(tr.Rounds), len(back.Rounds))
		}
		for i := range tr.Rounds {
			if !sameEvents(tr.Rounds[i].Add, back.Rounds[i].Add) || !sameEvents(tr.Rounds[i].Del, back.Rounds[i].Del) {
				t.Fatalf("round %d changed in the round trip: %+v → %+v", i+1, tr.Rounds[i], back.Rounds[i])
			}
		}
		replay, err := adversary.NewReplay(tr)
		if err != nil {
			t.Fatalf("accepted trace rejected by NewReplay: %v", err)
		}
		want := map[[2]int]bool{}
		key := func(e [2]int) [2]int { return [2]int{min(e[0], e[1]), max(e[0], e[1])} }
		for r := 1; r <= tr.NumRounds()+2; r++ {
			if r <= tr.NumRounds() {
				for _, e := range tr.Rounds[r-1].Add {
					want[key(e)] = true
				}
				for _, e := range tr.Rounds[r-1].Del {
					delete(want, key(e))
				}
			}
			g := replay.NextGraph(&sim.View{Round: r, N: tr.N})
			if g.N() != tr.N || g.M() != len(want) {
				t.Fatalf("round %d: replay served n=%d m=%d, want n=%d m=%d", r, g.N(), g.M(), tr.N, len(want))
			}
			for e := range want {
				if !g.HasEdge(e[0], e[1]) {
					t.Fatalf("round %d: replay lacks edge %v", r, e)
				}
			}
		}
	})
}
