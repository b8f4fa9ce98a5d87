package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSingletons(t *testing.T) {
	d := New(5)
	if d.Components() != 5 {
		t.Fatalf("Components = %d, want 5", d.Components())
	}
	if d.Len() != 5 {
		t.Fatalf("Len = %d, want 5", d.Len())
	}
	for i := 0; i < 5; i++ {
		if d.Find(i) != i {
			t.Fatalf("Find(%d) = %d", i, d.Find(i))
		}
		if d.size[d.Find(i)] != 1 {
			t.Fatalf("component size of %d = %d", i, d.size[d.Find(i)])
		}
	}
}

func TestNewNegative(t *testing.T) {
	d := New(-3)
	if d.Len() != 0 || d.Components() != 0 {
		t.Fatal("negative size not clamped")
	}
}

func TestUnionBasic(t *testing.T) {
	d := New(4)
	if !d.Union(0, 1) {
		t.Fatal("first union returned false")
	}
	if d.Union(1, 0) {
		t.Fatal("repeat union returned true")
	}
	if d.Find(0) != d.Find(1) {
		t.Fatal("0,1 not connected")
	}
	if d.Find(0) == d.Find(2) {
		t.Fatal("0,2 connected")
	}
	if d.Components() != 3 {
		t.Fatalf("Components = %d, want 3", d.Components())
	}
	if d.size[d.Find(0)] != 2 || d.size[d.Find(1)] != 2 {
		t.Fatal("component size wrong")
	}
}

func TestChainTransitivity(t *testing.T) {
	d := New(100)
	for i := 0; i+1 < 100; i++ {
		d.Union(i, i+1)
	}
	if d.Components() != 1 {
		t.Fatalf("Components = %d, want 1", d.Components())
	}
	if d.Find(0) != d.Find(99) {
		t.Fatal("endpoints not connected")
	}
	if d.size[d.Find(42)] != 100 {
		t.Fatalf("component size = %d, want 100", d.size[d.Find(42)])
	}
}

// TestRepresentatives: Find names one canonical root per component.
func TestRepresentatives(t *testing.T) {
	d := New(6)
	d.Union(0, 1)
	d.Union(2, 3)
	roots := map[int]bool{}
	for v := 0; v < 6; v++ {
		r := d.Find(v)
		if d.Find(r) != r {
			t.Fatalf("Find(%d) = %d is not a root", v, r)
		}
		roots[r] = true
	}
	if len(roots) != 4 || d.Components() != 4 {
		t.Fatalf("got %d roots and %d components, want 4", len(roots), d.Components())
	}
	if d.Find(0) != d.Find(1) || d.Find(2) != d.Find(3) || d.Find(0) == d.Find(2) {
		t.Fatal("roots do not follow the unions")
	}
}

func TestReset(t *testing.T) {
	d := New(10)
	d.Union(0, 9)
	d.Union(1, 2)
	d.Reset()
	if d.Components() != 10 {
		t.Fatalf("Components after Reset = %d", d.Components())
	}
	if d.Find(0) == d.Find(9) {
		t.Fatal("still connected after Reset")
	}
}

// Property: DSU agrees with a naive quadratic connectivity model under random
// union sequences.
func TestQuickAgainstNaiveModel(t *testing.T) {
	f := func(pairs []uint16, seed int64) bool {
		const n = 64
		d := New(n)
		// Naive model: component label per node.
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		merge := func(a, b int) {
			la, lb := label[a], label[b]
			if la == lb {
				return
			}
			for i := range label {
				if label[i] == lb {
					label[i] = la
				}
			}
		}
		for _, p := range pairs {
			a, b := int(p)%n, int(p>>8)%n
			d.Union(a, b)
			merge(a, b)
		}
		// Components must match.
		labels := map[int]bool{}
		for _, l := range label {
			labels[l] = true
		}
		if d.Components() != len(labels) {
			return false
		}
		// Random connectivity queries must match.
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if (d.Find(a) == d.Find(b)) != (label[a] == label[b]) {
				return false
			}
		}
		// Sum of component sizes over roots must equal n.
		total := 0
		for v := 0; v < n; v++ {
			if d.Find(v) == v {
				total += d.size[v]
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		d := New(1024)
		for j := 0; j < 2048; j++ {
			d.Union(rng.Intn(1024), rng.Intn(1024))
		}
	}
}
