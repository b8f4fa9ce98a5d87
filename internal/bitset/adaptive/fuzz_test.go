package adaptive

import (
	"testing"

	"dynspread/internal/bitset"
)

// FuzzSparsePromotion round-trips arbitrary operation tapes through the
// adaptive set across Sparse↔dense promotion boundaries and cross-checks the
// dense reference after every operation. The tape is a byte stream: each
// pair (op, val) applies one operation, with val scaled into the universe.
func FuzzSparsePromotion(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 0})
	f.Add([]byte{3, 3, 3, 7, 0, 200, 1, 200})
	// A tape long enough to promote (threshold for n=600 is 40 elements).
	long := make([]byte, 0, 128)
	for i := byte(0); i < 64; i++ {
		long = append(long, 0, i*4)
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, tape []byte) {
		const n = 600 // > 512: starts sparse, promotes at 40 elements
		s := New(n)
		ref := bitset.New(n)
		for i := 0; i+1 < len(tape); i += 2 {
			op, val := tape[i], int(tape[i+1])*3%n
			switch op % 4 {
			case 0:
				if s.Insert(val) != ref.Insert(val) {
					t.Fatalf("Insert(%d) diverged at tape[%d]", val, i)
				}
			case 1:
				if s.Delete(val) != deleteRef(ref, val) {
					t.Fatalf("Delete(%d) diverged at tape[%d]", val, i)
				}
			case 2:
				s.Reset(n)
				ref.Reset(n)
			case 3:
				if s.Contains(val) != ref.Contains(val) {
					t.Fatalf("Contains(%d) diverged at tape[%d]", val, i)
				}
			}
			if s.Count() != ref.Count() {
				t.Fatalf("Count %d != %d at tape[%d] (dense=%v)", s.Count(), ref.Count(), i, s.dense)
			}
		}
		// Full element-for-element round-trip check at the end of the tape.
		se, re := elements(s), ref.Elements()
		if len(se) != len(re) {
			t.Fatalf("Elements length %d != %d", len(se), len(re))
		}
		for i := range se {
			if se[i] != re[i] {
				t.Fatalf("Elements[%d] = %d, want %d", i, se[i], re[i])
			}
		}
		// And the promoted set must demote-and-repromote to the same contents.
		clone := New(n)
		clone.CopyFrom(s)
		if !clone.Equal(s) {
			t.Fatal("CopyFrom round-trip not equal")
		}
	})
}
