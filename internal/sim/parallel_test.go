package sim

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachDefaultsToGOMAXPROCS: workers <= 0 runs at most GOMAXPROCS
// jobs at once, and an empty index range runs none.
func TestForEachDefaultsToGOMAXPROCS(t *testing.T) {
	var peak, cur atomic.Int64
	n := 2*runtime.GOMAXPROCS(0) + 4
	_, err := ForEach(n, 0, func() func(i int) error {
		return func(int) error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			cur.Add(-1)
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := peak.Load(), int64(runtime.GOMAXPROCS(0)); got < 1 || got > limit {
		t.Fatalf("peak concurrency %d outside [1, GOMAXPROCS=%d]", got, limit)
	}
	if i, err := ForEach(0, 4, func() func(int) error { return nil }); i != -1 || err != nil {
		t.Fatalf("empty ForEach = (%d, %v)", i, err)
	}
}

// TestForEachStopsDispatchingAfterError: after a job fails no new index is
// dispatched, and ForEach reports the failing index with its error.
func TestForEachStopsDispatchingAfterError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	// One worker: after index 0 fails, indices 1 and 2 must never start.
	i, err := ForEach(3, 1, func() func(i int) error {
		return func(i int) error {
			if i == 0 {
				return boom
			}
			ran.Add(1)
			return nil
		}
	})
	if i != 0 || !errors.Is(err, boom) {
		t.Fatalf("ForEach = (%d, %v), want (0, boom)", i, err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d jobs dispatched after the first error", n)
	}
}
