package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"dynspread/internal/graph"
)

func randomSequence(t *testing.T, n, rounds int, seed int64) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*graph.Graph, rounds)
	for i := range out {
		out[i] = graph.RandomConnected(n, 2*n, rng)
	}
	return out
}

// graphsOf materializes the graph of every recorded round (1-based round r
// at index r-1).
func graphsOf(tr *GraphTrace) ([]*graph.Graph, error) {
	g := graph.New(tr.N)
	out := make([]*graph.Graph, 0, len(tr.Rounds))
	for i, ev := range tr.Rounds {
		if err := apply(g, i+1, ev); err != nil {
			return nil, err
		}
		out = append(out, g.Clone())
	}
	return out, nil
}

// record builds a trace of seq the way a recorded run does: one Append per
// round of the diff against the previous round's graph.
func record(n int, seq []*graph.Graph) *GraphTrace {
	tr := &GraphTrace{N: n}
	var prev *graph.Graph
	for _, g := range seq {
		tr.Append(graph.Compute(prev, g))
		prev = g
	}
	return tr
}

func TestBuilderRoundTrip(t *testing.T) {
	const n, rounds = 12, 25
	seq := randomSequence(t, n, rounds, 5)

	tr := record(n, seq)
	if tr.NumRounds() != rounds || tr.N != n {
		t.Fatalf("trace shape: n=%d rounds=%d", tr.N, tr.NumRounds())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	gs, err := graphsOf(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gs {
		if !gs[i].Equal(seq[i]) {
			t.Fatalf("round %d graph diverged after rebuild", i+1)
		}
	}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraphTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != n || back.NumRounds() != rounds {
		t.Fatalf("decoded shape: n=%d rounds=%d", back.N, back.NumRounds())
	}
	gs2, err := graphsOf(back)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gs2 {
		if !gs2[i].Equal(seq[i]) {
			t.Fatalf("round %d graph diverged after JSONL round trip", i+1)
		}
	}
}

func TestWriteIsDeterministic(t *testing.T) {
	seq := randomSequence(t, 8, 10, 9)
	render := func() string {
		var buf bytes.Buffer
		if err := record(8, seq).Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Fatal("serialized trace not deterministic")
	}
}

func TestReadRejectsCorruptTraces(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "empty input"},
		{"not a trace", `{"hello":1}` + "\n", "format"},
		{"bad version", `{"format":"dynspread-graph-trace","version":9,"n":4}` + "\n", "version"},
		{"round gap", `{"format":"dynspread-graph-trace","version":1,"n":4}` + "\n" +
			`{"r":2,"add":[[0,1]]}` + "\n", "expected 1"},
		{"duplicate insert", `{"format":"dynspread-graph-trace","version":1,"n":4}` + "\n" +
			`{"r":1,"add":[[0,1],[0,1]]}` + "\n", "already present"},
		{"dangling delete", `{"format":"dynspread-graph-trace","version":1,"n":4}` + "\n" +
			`{"r":1,"del":[[0,1]]}` + "\n", "not present"},
		{"edge out of range", `{"format":"dynspread-graph-trace","version":1,"n":4}` + "\n" +
			`{"r":1,"add":[[0,9]]}` + "\n", "invalid edge"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadGraphTrace(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestReadRejectsHugeN: a 64-byte header declaring n = 2^40 is refused before
// Validate allocates a scratch graph of that many nodes, which used to end the
// process with an out-of-memory fatal error.
func TestReadRejectsHugeN(t *testing.T) {
	const header = `{"format":"dynspread-graph-trace","version":1,"n":1099511627776}`
	for _, in := range []string{header, header + "\n" + `{"r":1,"add":[[0,1]]}` + "\n"} {
		if _, err := ReadGraphTrace(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "n <= 1048576") {
			t.Fatalf("err = %v, want the node bound", err)
		}
	}
	if err := (&GraphTrace{N: MaxN + 1}).Validate(); err == nil {
		t.Fatal("Validate accepted n = MaxN+1")
	}
}
