package main

import (
	"io"
	"path/filepath"
	"testing"
	"time"
)

// tinySizes shrinks every workload to a fraction of a second.
func tinySizes() sizes {
	return sizes{
		setups: 1, passes: 2, seeds: 1,
		phase: 700 * time.Millisecond, rate: 200, ladderStep: 50 * time.Millisecond,
		reps: 2, specs: 64, warm: 2,
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks each passes its correctness gate, reports every metric, and
// produces the same digest both times.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, traced := range []bool{false, true} {
				spans := filepath.Join(t.TempDir(), "spans.jsonl")
				b, sum, err := runOne(w, 5, tinySizes(), traced, spans, io.Discard)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !sum.Correct {
					t.Fatalf("traced=%v: correctness gate failed: %v", traced, b.problems)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(sum.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(sum.Metrics), len(want))
				}
				digests = append(digests, b.digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("digest changed between runs of the same seed: %s vs %s", digests[0], digests[1])
			}
		})
	}
}
