// Package bitset provides the set representations used throughout the
// simulator for token-knowledge sets K_v(t), the lower-bound bookkeeping
// sets K'_v, and (via the adaptive subpackage) graph adjacency rows.
//
// Two representations live here:
//
//   - Set is the dense, fixed-capacity bitset: ⌈n/64⌉ words, O(1) membership,
//     and word-at-a-time kernels that read two sets without writing either
//     (UnionCount, FirstNotIn, ForEachNotInFrom); ForEach scans set bits
//     without allocating.
//   - Sparse is a sorted small-list of element indices for near-empty sets:
//     O(count) iteration independent of the universe size, at the price of
//     O(log count) membership and O(count) insertion.
//
// Neither representation switches on its own; the adaptive subpackage wraps
// both behind one type that starts sparse and promotes to dense past an
// occupancy threshold (see bitset/adaptive for the calibration).
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bitset over the universe [0, Len()).
// The zero value is an empty set of capacity 0; use New for a sized set.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set with capacity for n elements.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// WordsFor returns the number of 64-bit words a set of capacity n occupies —
// for callers that block-allocate storage for many sets (see Wrap).
func WordsFor(n int) int {
	if n < 0 {
		n = 0
	}
	return (n + wordBits - 1) / wordBits
}

// Wrap returns a Set VALUE over caller-provided word storage (len must be
// WordsFor(n); Wrap panics otherwise). The caller must not alias words with
// another live set. Wrap is how the adaptive layer and the graph substrate
// slab-allocate thousands of small sets in one allocation.
func Wrap(n int, words []uint64) Set {
	if n < 0 {
		n = 0
	}
	if len(words) != WordsFor(n) {
		panic(fmt.Sprintf("bitset: Wrap got %d words for n=%d (need %d)", len(words), n, WordsFor(n)))
	}
	return Set{n: n, words: words}
}

// Len returns the capacity (universe size) of the set.
func (s *Set) Len() int { return s.n }

// Words returns the backing word slice (bit i of word i/64 is element i).
// The slice aliases the set: writes through it change the set's contents,
// and its identity is only stable until the next Reset/CopyFrom/Wrap. The
// adaptive layer caches it so its dense fast paths inline a one-word probe
// instead of a method call.
func (s *Set) Words() []uint64 { return s.words }

// Add inserts i into the set. Out-of-range indices are ignored.
//
//dynspread:hotpath
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Insert adds i and reports whether it was newly inserted (false for
// out-of-range indices and elements already present). One word load replaces
// the Contains-then-Add double lookup on the engine's delivery path.
//
//dynspread:hotpath
func (s *Set) Insert(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	w, b := i/wordBits, uint64(1)<<uint(i%wordBits)
	if s.words[w]&b != 0 {
		return false
	}
	s.words[w] |= b
	return true
}

// Contains reports whether i is in the set.
//
//dynspread:hotpath
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set.
//
//dynspread:hotpath
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CopyFrom makes s an exact copy of o, reusing s's word storage when the
// capacity already matches (one memmove, no allocation).
func (s *Set) CopyFrom(o *Set) {
	if s.n != o.n || len(s.words) != len(o.words) {
		s.Reset(o.n)
	}
	copy(s.words, o.words)
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Reset reconfigures s into an empty set of capacity n, reusing the existing
// word storage whenever it suffices. It is the in-place equivalent of
// replacing s with New(n): repeated Resets across a shrinking-and-growing
// capacity sweep allocate only when n exceeds every capacity seen before.
func (s *Set) Reset(n int) {
	if n < 0 {
		n = 0
	}
	need := (n + wordBits - 1) / wordBits
	if cap(s.words) < need {
		s.words = make([]uint64, need)
		s.n = n
		return
	}
	s.words = s.words[:need]
	s.n = n
	s.Clear()
}

// UnionCount returns |s ∪ o| without allocating. Capacities must match; a
// mismatch returns -1.
//
//dynspread:hotpath
func (s *Set) UnionCount(o *Set) int {
	if o.n != s.n {
		return -1
	}
	c := 0
	for i, w := range o.words {
		c += bits.OnesCount64(s.words[i] | w)
	}
	return c
}

// Equal reports whether s and o contain the same elements and capacity.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Elements returns the members of the set in increasing order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for every member in increasing order without allocating —
// the scan kernel that replaces Elements() at hot call sites.
func (s *Set) ForEach(fn func(int)) {
	for wi, w := range s.words {
		for w != 0 {
			fn(wi*wordBits + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// ForEachFrom calls fn for every member >= from in increasing order without
// allocating.
func (s *Set) ForEachFrom(from int, fn func(int)) {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return
	}
	wi := from / wordBits
	w := s.words[wi] & (^uint64(0) << uint(from%wordBits))
	for {
		for w != 0 {
			fn(wi*wordBits + bits.TrailingZeros64(w))
			w &= w - 1
		}
		wi++
		if wi >= len(s.words) {
			return
		}
		w = s.words[wi]
	}
}

// ScanFrom calls fn for every member >= from in increasing order until fn
// returns false. It reports whether the scan ran to completion — the
// early-exit variant of ForEachFrom for callers like Graph.EdgeAt.
func (s *Set) ScanFrom(from int, fn func(int) bool) bool {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return true
	}
	wi := from / wordBits
	w := s.words[wi] & (^uint64(0) << uint(from%wordBits))
	for {
		for w != 0 {
			if !fn(wi*wordBits + bits.TrailingZeros64(w)) {
				return false
			}
			w &= w - 1
		}
		wi++
		if wi >= len(s.words) {
			return true
		}
		w = s.words[wi]
	}
}

// ForEachNotInFrom calls fn for every element >= from of s \ o in increasing
// order without allocating — the kernel behind per-row graph diffs.
// Capacities need not match: elements of s beyond o's capacity count as
// absent from o.
func (s *Set) ForEachNotInFrom(o *Set, from int, fn func(int)) {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return
	}
	wi := from / wordBits
	mask := ^uint64(0) << uint(from%wordBits)
	for ; wi < len(s.words); wi++ {
		w := s.words[wi] & mask
		mask = ^uint64(0)
		if wi < len(o.words) {
			w &^= o.words[wi]
		}
		for w != 0 {
			fn(wi*wordBits + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// FirstNotIn returns the smallest element of s \ o, or -1 when the
// difference is empty. It never allocates (unlike filtering Elements).
// Capacities need not match: elements of s beyond o's capacity count as
// absent from o.
//
//dynspread:hotpath
func (s *Set) FirstNotIn(o *Set) int {
	for i, w := range s.words {
		if i < len(o.words) {
			w &^= o.words[i]
		}
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// String renders the set as {a, b, c} for debugging.
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, e := range s.Elements() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%d", e)
	}
	sb.WriteByte('}')
	return sb.String()
}
