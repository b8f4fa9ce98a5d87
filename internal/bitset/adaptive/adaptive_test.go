package adaptive

import (
	"math/rand"
	"testing"

	"dynspread/internal/bitset"
)

// The adaptive set is validated property-style against the dense bitset.Set
// reference: long random operation sequences (insert/delete/clear/reset)
// crossing the promote/demote boundaries must agree element-for-element with
// the dense model at every step.

// deleteRef removes e from the dense reference through its word slice
// (bitset.Set has no single-element delete) and reports whether e was
// present.
func deleteRef(ref *bitset.Set, e int) bool {
	if !ref.Contains(e) {
		return false
	}
	ref.Words()[e/64] &^= 1 << uint(e%64)
	return true
}

// elements collects s's members in increasing order.
func elements(s *Set) []int {
	var out []int
	s.ForEach(func(e int) { out = append(out, e) })
	return out
}

// checkAgainst fails unless s and the dense reference hold exactly the same
// elements and agree on every read-only query.
func checkAgainst(t *testing.T, s *Set, ref *bitset.Set, ctx string) {
	t.Helper()
	if s.Len() != ref.Len() {
		t.Fatalf("%s: Len %d != %d", ctx, s.Len(), ref.Len())
	}
	if s.Count() != ref.Count() {
		t.Fatalf("%s: Count %d != %d (dense=%v)", ctx, s.Count(), ref.Count(), s.dense)
	}
	if s.Full() != (ref.Count() == ref.Len()) {
		t.Fatalf("%s: Full disagrees", ctx)
	}
	se, re := elements(s), ref.Elements()
	if len(se) != len(re) {
		t.Fatalf("%s: Elements %v != %v", ctx, se, re)
	}
	for i := range se {
		if se[i] != re[i] {
			t.Fatalf("%s: Elements %v != %v", ctx, se, re)
		}
	}
}

func TestAdaptiveRandomOpsAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Universes straddling the small-universe rule: n <= 512 is dense-only,
	// n > 512 exercises sparse, promotion, and retained-storage demotion.
	for _, n := range []int{1, 40, 512, 513, 700, 2000} {
		s := New(n)
		ref := bitset.New(n)
		other := bitset.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(5) == 0 {
				other.Add(i)
			}
		}
		for op := 0; op < 3000; op++ {
			switch rng.Intn(20) {
			case 0: // Reset (demote) — rare, so runs cross the threshold often
				s.Reset(n)
				ref.Reset(n)
			case 1, 2: // Delete
				e := rng.Intn(n)
				if s.Delete(e) != deleteRef(ref, e) {
					t.Fatalf("n=%d op=%d: Delete(%d) diverged", n, op, e)
				}
			case 3: // Clear (demote without pre-sizing the list)
				s.Clear()
				ref.Clear()
			default: // Insert
				e := rng.Intn(n)
				if s.Insert(e) != ref.Insert(e) {
					t.Fatalf("n=%d op=%d: Insert(%d) diverged", n, op, e)
				}
			}
			// Cheap invariants every step, full cross-check sparsely.
			if s.Count() != ref.Count() {
				t.Fatalf("n=%d op=%d: Count %d != %d", n, op, s.Count(), ref.Count())
			}
			e := rng.Intn(n)
			if s.Contains(e) != ref.Contains(e) {
				t.Fatalf("n=%d op=%d: Contains(%d) diverged", n, op, e)
			}
			if got, want := s.FirstNotIn(other), ref.FirstNotInFrom(other, 0); got != want {
				t.Fatalf("n=%d op=%d: FirstNotIn = %d, want %d", n, op, got, want)
			}
			if got, want := s.UnionCount(other), ref.UnionCount(other); got != want {
				t.Fatalf("n=%d op=%d: UnionCount = %d, want %d", n, op, got, want)
			}
			if op%101 == 0 {
				checkAgainst(t, s, ref, "sampled")
			}
		}
		checkAgainst(t, s, ref, "final")
	}
}

func TestAdaptiveRepresentationPolicy(t *testing.T) {
	small := New(512)
	if !small.dense {
		t.Fatal("universe 512 must start dense")
	}
	big := New(513)
	if big.dense {
		t.Fatal("universe 513 must start sparse")
	}
	th := promoteAt(513)
	for i := 0; i < th; i++ {
		big.Insert(i)
	}
	if big.dense {
		t.Fatalf("promoted early at count %d (threshold %d)", big.Count(), th)
	}
	big.Insert(th)
	if !big.dense {
		t.Fatalf("not promoted past threshold (count %d, threshold %d)", big.Count(), th)
	}
	big.Reset(513)
	if big.dense || big.Count() != 0 {
		t.Fatal("Reset must demote to empty sparse")
	}
}

func TestAdaptiveResetRetainsStorage(t *testing.T) {
	// After one promote/demote cycle, refilling past the threshold must not
	// allocate: both representations' storage is retained. This is the
	// contract the engine's steady-state allocation gates rely on.
	n := 1000
	s := New(n)
	fill := func() {
		for i := 0; i < promoteAt(n)+10; i++ {
			s.Insert(i * 3 % n)
		}
	}
	fill() // first cycle allocates dense words
	s.Reset(n)
	allocs := testing.AllocsPerRun(10, func() {
		fill()
		s.Reset(n)
	})
	if allocs != 0 {
		t.Fatalf("promote/demote cycle allocates %.1f objects after warm-up, want 0", allocs)
	}
}

func TestNewSliceSlab(t *testing.T) {
	sets := NewSlice(8, 100)
	for i := range sets {
		if !sets[i].dense || sets[i].Len() != 100 || sets[i].Count() != 0 {
			t.Fatalf("set %d: unexpected initial state", i)
		}
	}
	sets[3].Insert(42)
	for i := range sets {
		if i != 3 && sets[i].Contains(42) {
			t.Fatalf("slab rows alias each other: set %d sees set 3's element", i)
		}
	}
	if !sets[3].Contains(42) || sets[3].Count() != 1 {
		t.Fatal("slab row lost its element")
	}
}

// TestNewSliceSparseRowsGrowOnInsert: sparse rows start with no list
// storage (one allocation for the whole slice), yet still promote only past
// their threshold.
func TestNewSliceSparseRowsGrowOnInsert(t *testing.T) {
	const n = 4096
	if allocs := testing.AllocsPerRun(5, func() { NewSlice(64, n) }); allocs != 1 {
		t.Fatalf("NewSlice(64, %d) made %.0f allocations, want 1", n, allocs)
	}
	sets := NewSlice(3, n)
	th := promoteAt(n)
	for i := range sets {
		if sets[i].dense || sets[i].Len() != n || sets[i].Count() != 0 {
			t.Fatalf("set %d: want an empty sparse set", i)
		}
	}
	for i := 0; i < th; i++ {
		sets[1].Insert(i * 7 % n)
	}
	if sets[1].dense || sets[1].Count() != th {
		t.Fatalf("promoted early at count %d (threshold %d)", sets[1].Count(), th)
	}
	sets[1].Insert(n - 1)
	if !sets[1].dense || sets[1].Count() != th+1 {
		t.Fatalf("not promoted past threshold (count %d, threshold %d)", sets[1].Count(), th)
	}
	if sets[0].Count() != 0 || sets[2].Count() != 0 {
		t.Fatal("rows alias each other")
	}
}

func TestAdaptiveEqualCopyFromMixedRep(t *testing.T) {
	n := 1000
	sp := New(n) // stays sparse
	sp.Insert(7)
	sp.Insert(900)
	dn := New(n) // force dense
	for i := 0; i <= promoteAt(n); i++ {
		dn.Insert(i)
	}
	if !dn.dense || sp.dense {
		t.Fatal("setup: wrong representations")
	}
	dn2 := New(n)
	dn2.CopyFrom(dn)
	if !dn2.Equal(dn) || !dn.Equal(dn2) {
		t.Fatal("dense copy not equal")
	}
	sp2 := New(n)
	sp2.CopyFrom(sp)
	if !sp2.Equal(sp) || sp2.dense {
		t.Fatal("sparse copy not equal or wrong rep")
	}
	// Mixed-representation equality: same elements, different reps.
	mix := New(n)
	for i := 0; i <= promoteAt(n); i++ {
		mix.Insert(i)
	}
	mixSp := New(n)
	// Build the same elements without crossing the threshold: insert, then
	// compare against a dense set holding the same elements via CopyFrom.
	mixSp.CopyFrom(mix)
	if !mixSp.Equal(mix) {
		t.Fatal("CopyFrom of dense must compare equal")
	}
	if sp.Equal(dn) {
		t.Fatal("different sets compare equal")
	}
}

func TestAdaptiveForEachNotInFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{64, 513, 1500} {
		for trial := 0; trial < 30; trial++ {
			a, b := New(n), New(n)
			ra, rb := bitset.New(n), bitset.New(n)
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					a.Insert(i)
					ra.Add(i)
				}
				if rng.Intn(3) == 0 {
					b.Insert(i)
					rb.Add(i)
				}
			}
			from := rng.Intn(n + 1)
			var got, want []int
			a.ForEachNotInFrom(b, from, func(e int) { got = append(got, e) })
			ra.ForEachNotInFrom(rb, from, func(e int) { want = append(want, e) })
			if len(got) != len(want) {
				t.Fatalf("n=%d from=%d: %v != %v", n, from, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d from=%d: %v != %v", n, from, got, want)
				}
			}
		}
	}
}

// TestAdaptiveFirstNotInFrom checks FirstNotInFrom in both representations
// against a naive loop, at scan starts below 0, at 0, inside a word, on
// word boundaries and at or above n.
func TestAdaptiveFirstNotInFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		n, count int
		dense    bool
	}{
		{300, 40, true},    // small universe: dense from the start
		{2000, 100, false}, // below the promotion threshold (128)
		{2000, 900, true},  // promoted
	} {
		s := New(tc.n)
		for s.Count() < tc.count {
			s.Insert(rng.Intn(tc.n))
		}
		if s.dense != tc.dense {
			t.Fatalf("n=%d count=%d: dense=%v, want %v", tc.n, tc.count, s.dense, tc.dense)
		}
		// o holds a prefix of the universe plus scattered elements beyond
		// it: the shape Topkis's sent-sets take.
		o := bitset.New(tc.n)
		for i := 0; i < tc.n; i++ {
			if i < tc.n/4 || rng.Intn(2) == 0 {
				o.Add(i)
			}
		}
		for _, from := range []int{-70, -1, 0, 1, 37, 63, 64, 65, 128, tc.n / 4, tc.n - 1, tc.n, tc.n + 1} {
			want := -1
			for i := max(from, 0); i < tc.n; i++ {
				if s.Contains(i) && !o.Contains(i) {
					want = i
					break
				}
			}
			if got := s.FirstNotInFrom(o, from); got != want {
				t.Fatalf("n=%d dense=%v: FirstNotInFrom(o, %d) = %d, want %d", tc.n, s.dense, from, got, want)
			}
			if from == 0 {
				if got := s.FirstNotIn(o); got != want {
					t.Fatalf("n=%d dense=%v: FirstNotIn(o) = %d, want %d", tc.n, s.dense, got, want)
				}
			}
		}
	}
}
