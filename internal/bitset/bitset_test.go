package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
}

func TestNewNegative(t *testing.T) {
	s := New(-5)
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

func TestAddContainsRemove(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) = false after Add", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	if s.Contains(2) || s.Contains(66) {
		t.Fatal("Contains reports an element never added")
	}
	// Clear is the set's one removal operation.
	s.Clear()
	for _, i := range []int{0, 63, 64, 129} {
		if s.Contains(i) {
			t.Fatalf("Contains(%d) after Clear", i)
		}
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	s := New(10)
	s.Add(-1)
	s.Add(10)
	s.Add(1000)
	if s.Count() != 0 {
		t.Fatal("out-of-range Add modified set")
	}
	if s.Contains(-1) || s.Contains(10) {
		t.Fatal("Contains out of range returned true")
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
}

func TestClear(t *testing.T) {
	s := New(70)
	for i := 0; i < 70; i++ {
		s.Add(i)
	}
	s.Clear()
	if s.Count() != 0 || s.Len() != 70 {
		t.Fatalf("after Clear: Count=%d Len=%d, want 0 and 70", s.Count(), s.Len())
	}
}

// TestClone: CopyFrom makes an equal copy that shares no storage, whether
// it reuses the destination's words or resizes them.
func TestClone(t *testing.T) {
	s := New(100)
	s.Add(5)
	s.Add(99)
	for _, c := range []*Set{New(100), New(3)} {
		c.CopyFrom(s)
		if !c.Equal(s) {
			t.Fatal("copy not equal")
		}
		c.Add(7)
		if s.Contains(7) {
			t.Fatal("copy aliases original")
		}
	}
}

func TestUnionIntersectDifference(t *testing.T) {
	a := New(200)
	b := New(200)
	for i := 0; i < 200; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 200; i += 3 {
		b.Add(i)
	}
	union, inter := 0, 0
	var diff []int
	for i := 0; i < 200; i++ {
		even, tri := i%2 == 0, i%3 == 0
		if even || tri {
			union++
		}
		if even && tri {
			inter++
		}
		if even && !tri {
			diff = append(diff, i)
		}
	}
	if got := a.UnionCount(b); got != union {
		t.Fatalf("UnionCount = %d, want %d", got, union)
	}
	if got := a.Count() + b.Count() - a.UnionCount(b); got != inter {
		t.Fatalf("|a|+|b|-|a∪b| = %d, want |a∩b| = %d", got, inter)
	}
	var got []int
	a.ForEachNotInFrom(b, 0, func(e int) { got = append(got, e) })
	if !equalInts(got, diff) {
		t.Fatalf("ForEachNotInFrom = %v, want %v", got, diff)
	}
	if got := a.FirstNotInFrom(b, 0); got != diff[0] {
		t.Fatalf("FirstNotInFrom(o, 0) = %d, want %d", got, diff[0])
	}
}

func TestCapacityMismatch(t *testing.T) {
	a, b := New(10), New(20)
	if a.UnionCount(b) != -1 {
		t.Fatal("UnionCount mismatch != -1")
	}
	if a.Equal(b) {
		t.Fatal("Equal across capacities")
	}
}

func TestElementsSorted(t *testing.T) {
	s := New(300)
	want := []int{0, 2, 64, 65, 128, 299}
	for _, i := range want {
		s.Add(i)
	}
	got := s.Elements()
	if len(got) != len(want) {
		t.Fatalf("Elements len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elements[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestString(t *testing.T) {
	s := New(10)
	s.Add(1)
	s.Add(3)
	if got := s.String(); got != "{1, 3}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(3).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// Property: for random element sets, bitset operations agree with a
// map-based model.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(addsA, addsB []uint16, seed int64) bool {
		const n = 512
		a, b := New(n), New(n)
		ma, mb := map[int]bool{}, map[int]bool{}
		for _, x := range addsA {
			i := int(x) % n
			a.Add(i)
			ma[i] = true
		}
		for _, x := range addsB {
			i := int(x) % n
			b.Add(i)
			mb[i] = true
		}
		if a.Count() != len(ma) || b.Count() != len(mb) {
			return false
		}
		union := map[int]bool{}
		for i := range ma {
			union[i] = true
		}
		for i := range mb {
			union[i] = true
		}
		if a.UnionCount(b) != len(union) {
			return false
		}
		first := -1
		for i := range ma {
			if !mb[i] && (first == -1 || i < first) {
				first = i
			}
		}
		if a.FirstNotInFrom(b, 0) != first {
			return false
		}
		// Random probes agree with the model.
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			x := rng.Intn(n)
			if a.Contains(x) != ma[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: union counts are commutative and idempotent, and each operand
// has nothing outside the union.
func TestQuickSetAlgebra(t *testing.T) {
	f := func(addsA, addsB []uint16) bool {
		const n = 256
		a, b, ab := New(n), New(n), New(n)
		for _, x := range addsA {
			a.Add(int(x) % n)
			ab.Add(int(x) % n)
		}
		for _, x := range addsB {
			b.Add(int(x) % n)
			ab.Add(int(x) % n)
		}
		if a.UnionCount(b) != ab.Count() || b.UnionCount(a) != ab.Count() {
			return false
		}
		if ab.UnionCount(b) != ab.Count() || ab.UnionCount(ab) != ab.Count() {
			return false
		}
		return a.FirstNotInFrom(ab, 0) == -1 && b.FirstNotInFrom(ab, 0) == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	s := New(130)
	for i := 0; i < 130; i++ {
		s.Add(i)
	}
	s.Reset(70)
	if s.Len() != 70 || s.Count() != 0 {
		t.Fatalf("after Reset(70): len=%d count=%d", s.Len(), s.Count())
	}
	s.Add(69)
	// Growing within the retained word capacity must clear stale bits.
	s.Reset(100)
	if s.Len() != 100 || s.Count() != 0 {
		t.Fatalf("after Reset(100): len=%d count=%d", s.Len(), s.Count())
	}
	s.Add(99)
	if !s.Contains(99) || s.Count() != 1 {
		t.Fatal("resized set broken")
	}
	// Growing beyond capacity reallocates; semantics identical to New.
	s.Reset(1000)
	if s.Len() != 1000 || s.Count() != 0 {
		t.Fatalf("after Reset(1000): len=%d count=%d", s.Len(), s.Count())
	}
	s.Reset(-3)
	if s.Len() != 0 {
		t.Fatal("negative capacity not clamped to 0")
	}
}

func TestFirstNotIn(t *testing.T) {
	s, o := New(200), New(200)
	if s.FirstNotInFrom(o, 0) != -1 {
		t.Fatal("empty \\ empty should be -1")
	}
	s.Add(70)
	s.Add(130)
	if got := s.FirstNotInFrom(o, 0); got != 70 {
		t.Fatalf("FirstNotInFrom(o, 0) = %d, want 70", got)
	}
	o.Add(70)
	if got := s.FirstNotInFrom(o, 0); got != 130 {
		t.Fatalf("FirstNotInFrom(o, 0) = %d, want 130", got)
	}
	o.Add(130)
	if s.FirstNotInFrom(o, 0) != -1 {
		t.Fatal("covered set should yield -1")
	}
	// Mismatched capacities: elements of s beyond o's range count as absent.
	short := New(64)
	if got := s.FirstNotInFrom(short, 0); got != 70 {
		t.Fatalf("FirstNotInFrom(short, 0) = %d, want 70", got)
	}
	// Must never allocate: it replaces an Elements() loop on the hot path.
	if avg := testing.AllocsPerRun(100, func() { _ = s.FirstNotInFrom(o, 0) }); avg != 0 {
		t.Fatalf("FirstNotInFrom allocates %.1f per call", avg)
	}
}

func BenchmarkUnionCount(b *testing.B) {
	a, c := New(4096), New(4096)
	for i := 0; i < 4096; i += 3 {
		a.Add(i)
	}
	for i := 0; i < 4096; i += 5 {
		c.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.UnionCount(c)
	}
}
