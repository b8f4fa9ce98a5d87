package sim

import (
	"testing"

	"dynspread/internal/graph"
	"dynspread/internal/token"
)

// TestWorkspaceKnowForReusesInPlace checks knowFor's behavior across shape
// changes: sets come back cleared with the right capacity, and previously
// cached sets are reused rather than replaced.
func TestWorkspaceKnowForReusesInPlace(t *testing.T) {
	ws := NewWorkspace()
	know := ws.knowFor(4, 16)
	if len(know) != 4 || know[0].Len() != 16 {
		t.Fatalf("shape = %d sets of capacity %d", len(know), know[0].Len())
	}
	know[2].Add(7)
	first := know[2]

	// Same n, smaller k: same set objects, resized and cleared.
	know = ws.knowFor(4, 5)
	if know[2] != first {
		t.Fatal("k change replaced the cached bitsets")
	}
	if know[2].Len() != 5 || know[2].Count() != 0 {
		t.Fatalf("set not reset: len=%d count=%d", know[2].Len(), know[2].Count())
	}

	// Larger n: existing sets survive, new slots are filled.
	know = ws.knowFor(6, 5)
	if len(know) != 6 || know[2] != first {
		t.Fatal("n growth dropped cached bitsets")
	}
	for v, s := range know {
		if s == nil || s.Len() != 5 {
			t.Fatalf("slot %d not initialized", v)
		}
	}

	// Shrinking n keeps the prefix.
	know = ws.knowFor(3, 5)
	if len(know) != 3 || know[2] != first {
		t.Fatal("n shrink dropped cached bitsets")
	}

	// Growing past cap after a shrink keeps the sets cached beyond the
	// current length (they live between len and cap of the old array).
	fifth := ws.knowFor(6, 5)[5]
	ws.knowFor(2, 5)
	if got := ws.knowFor(64, 5); got[5] != fifth {
		t.Fatal("grow past cap dropped bitsets cached beyond the current length")
	}
}

// TestWorkspaceKnowForKSweepAllocs is the regression gate for the K-axis
// thrash fix: once a worker's workspace has seen the largest K of a sweep,
// revisiting any K at the same n must not allocate at all. (The old code
// threw away and reallocated all n bitsets on every K change.)
func TestWorkspaceKnowForKSweepAllocs(t *testing.T) {
	const n, kMax = 64, 1024
	ws := NewWorkspace()
	ks := []int{16, 256, kMax, 64, 1, 512}
	ws.knowFor(n, kMax) // warm to the sweep's largest K
	avg := testing.AllocsPerRun(20, func() {
		for _, k := range ks {
			know := ws.knowFor(n, k)
			if len(know) != n || know[0].Len() != k {
				t.Fatalf("bad shape for k=%d", k)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("K sweep at fixed n allocates %.1f allocs per pass, want 0", avg)
	}
}

// TestWorkspaceReuseKeepsResultsIdentical runs the same trial twice on one
// workspace (with a different shape in between) and requires identical
// results — buffer reuse must never leak state between executions.
func TestWorkspaceReuseKeepsResultsIdentical(t *testing.T) {
	assign, err := token.SingleSource(8, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	other, err := token.Gossip(6)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	run := func(a *token.Assignment, g *graph.Graph) *Result {
		res, err := RunUnicast(UnicastConfig{
			Assign: a, Factory: newPushProto,
			Adversary: staticAdv{g}, Seed: 1, Workspace: ws,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(assign, graph.Path(8))
	run(other, graph.Cycle(6)) // different (n, k) in between
	again := run(assign, graph.Path(8))
	if *first != *again {
		t.Fatalf("workspace reuse changed results:\n first %+v\n again %+v", first, again)
	}
}
