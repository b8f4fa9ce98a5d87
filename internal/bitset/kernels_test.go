package bitset

import (
	"math/rand"
	"testing"
)

// Tests for the word-batched kernels and the Sparse representation added for
// the adaptive knowledge-set layer.

func TestInsertDelete(t *testing.T) {
	s := New(130)
	if !s.Insert(5) {
		t.Fatal("first Insert(5) = false")
	}
	if s.Insert(5) {
		t.Fatal("second Insert(5) = true")
	}
	if !s.Contains(5) {
		t.Fatal("missing 5 after Insert")
	}
	if s.Insert(-1) || s.Insert(130) {
		t.Fatal("out-of-range Insert must report false")
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
}

func TestForEachVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(260)
		s, o := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Add(i)
			}
			if rng.Intn(2) == 0 {
				o.Add(i)
			}
		}
		var got []int
		s.ForEach(func(e int) { got = append(got, e) })
		want := s.Elements()
		if !equalInts(got, want) {
			t.Fatalf("ForEach = %v, want %v", got, want)
		}

		from := rng.Intn(n + 2)
		got = got[:0]
		s.ForEachFrom(from, func(e int) { got = append(got, e) })
		want = want[:0]
		for _, e := range s.Elements() {
			if e >= from {
				want = append(want, e)
			}
		}
		if !equalInts(got, want) {
			t.Fatalf("ForEachFrom(%d) = %v, want %v", from, got, want)
		}

		got = got[:0]
		s.ForEachNotInFrom(o, from, func(e int) { got = append(got, e) })
		want = want[:0]
		for _, e := range s.Elements() {
			if e >= from && !o.Contains(e) {
				want = append(want, e)
			}
		}
		if !equalInts(got, want) {
			t.Fatalf("ForEachNotInFrom(%d) = %v, want %v", from, got, want)
		}
	}
}

func TestForEachNotInFromShorterOther(t *testing.T) {
	s, o := New(200), New(100)
	s.Add(50)
	s.Add(150)
	o.Add(50)
	var got []int
	s.ForEachNotInFrom(o, 0, func(e int) { got = append(got, e) })
	if !equalInts(got, []int{150}) {
		t.Fatalf("elements beyond o's capacity must count as absent; got %v", got)
	}
}

func TestScanFrom(t *testing.T) {
	s := New(200)
	for _, e := range []int{3, 70, 71, 199} {
		s.Add(e)
	}
	var got []int
	if !s.ScanFrom(0, func(e int) bool { got = append(got, e); return true }) {
		t.Fatal("full scan must report completion")
	}
	if !equalInts(got, []int{3, 70, 71, 199}) {
		t.Fatalf("ScanFrom full = %v", got)
	}
	got = got[:0]
	if s.ScanFrom(4, func(e int) bool { got = append(got, e); return e < 71 }) {
		t.Fatal("stopped scan must report false")
	}
	if !equalInts(got, []int{70, 71}) {
		t.Fatalf("ScanFrom early-exit = %v", got)
	}
}

func TestWrap(t *testing.T) {
	n := 130
	w := WordsFor(n)
	if w != 3 {
		t.Fatalf("WordsFor(130) = %d, want 3", w)
	}
	words := make([]uint64, w)
	s := Wrap(n, words)
	s.Add(129)
	if words[2] == 0 {
		t.Fatal("Wrap must alias caller storage")
	}
	if s.Len() != n || s.Count() != 1 {
		t.Fatalf("wrapped set Len=%d Count=%d", s.Len(), s.Count())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Wrap with wrong word count must panic")
		}
	}()
	Wrap(n, make([]uint64, w+1))
}

func TestSparseBasics(t *testing.T) {
	var s Sparse
	s.Reset(1000)
	for _, e := range []int{500, 2, 999, 2, -1, 1000} {
		s.Insert(e)
	}
	if !s.Contains(2) || !s.Contains(500) || !s.Contains(999) {
		t.Fatalf("unexpected contents: %v", sparseElements(&s))
	}
	if !equalInts(sparseElements(&s), []int{2, 500, 999}) {
		t.Fatalf("elements not sorted: %v", sparseElements(&s))
	}
	if !s.Delete(500) || s.Delete(500) {
		t.Fatal("Delete semantics broken")
	}
	var got []int
	s.ForEachFrom(3, func(e int) { got = append(got, e) })
	if !equalInts(got, []int{999}) {
		t.Fatalf("ForEachFrom(3) = %v", got)
	}
	d := New(1000)
	s.FillDense(d)
	if d.Count() != 2 || !d.Contains(2) || !d.Contains(999) {
		t.Fatal("FillDense mismatch")
	}
}

func TestSparseVsDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(400)
		var sp Sparse
		sp.Reset(n)
		model := make([]bool, n)
		other := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				other.Add(i)
			}
		}
		for op := 0; op < 80; op++ {
			e := rng.Intn(n)
			del := rng.Intn(3) == 0
			if del {
				if sp.Delete(e) != model[e] {
					t.Fatal("Delete diverged")
				}
			} else if sp.Insert(e) == model[e] {
				t.Fatal("Insert diverged")
			}
			model[e] = !del
		}
		dn := New(n)
		for e, in := range model {
			if in {
				dn.Add(e)
			}
		}
		if !equalInts(sparseElements(&sp), dn.Elements()) {
			t.Fatalf("elements diverged: %v vs %v", sparseElements(&sp), dn.Elements())
		}
		if got, want := sp.FirstNotIn(other), dn.FirstNotIn(other); got != want {
			t.Fatalf("FirstNotIn = %d, want %d", got, want)
		}
		if got, want := sp.UnionCountDense(other), dn.UnionCount(other); got != want {
			t.Fatalf("UnionCountDense = %d, want %d", got, want)
		}
	}
}

// sparseElements collects s's members in increasing order.
func sparseElements(s *Sparse) []int {
	var out []int
	s.ForEach(func(e int) { out = append(out, e) })
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
