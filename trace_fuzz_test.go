package dynspread_test

import (
	"bytes"
	"reflect"
	"testing"

	"dynspread"
)

// sameEvents compares two edge-event lists, treating nil and empty alike (an
// empty list is not written, so it reads back nil).
func sameEvents(a, b [][2]int) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// FuzzReadGraphTrace: the trace decoder behind dynspread.ReadTrace and
// spreadsim -replay never crashes, whatever the input. An accepted trace
// passes Validate, and writing it and reading it back gives an equal trace.
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
	})
}
