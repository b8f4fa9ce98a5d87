// Package adaptive provides the occupancy-adaptive set representation used
// for the simulator's knowledge sets K_v(t) and graph adjacency rows: a
// bitset.Sparse sorted small-list while the set is near-empty, promoted to a
// dense bitset.Set once occupancy passes a calibrated threshold, and demoted
// back to sparse on Reset.
//
// The API mirrors the dense bitset.Set
// (Add/Insert/Contains/Count/UnionCount/FirstNotInFrom/Equal/CopyFrom/Reset and
// the ForEach scan kernels), so hot paths are written once against this
// type. Count is cached and maintained incrementally, which makes Count and
// Full O(1) — the engine's per-round completion scan pays one integer
// compare per node instead of a popcount sweep.
//
// Representation policy (calibrated by BenchmarkKernels in this package;
// see ARCHITECTURE.md):
//
//   - Universes of at most startDenseWords words (n ≤ 512) are dense from
//     the start: a handful of words beats any list bookkeeping, and the
//     simulator's graph rows at experiment scale land here.
//   - Larger universes start sparse and promote once the element count
//     exceeds sparsePerWord × ⌈n/64⌉ (~6% occupancy), where the word-batched
//     dense union count overtakes the O(count) list walk.
//
// Promotion retains the sparse backing list and demotion (Reset) retains the
// dense words, so a workspace-reused set switches representations without
// allocating after its first full run — the property the steady-state
// allocation gates depend on.
package adaptive

import (
	"math/bits"

	"dynspread/internal/bitset"
)

const (
	// startDenseWords: universes of at most this many dense words skip the
	// sparse representation entirely.
	startDenseWords = 8
	// sparsePerWord: promotion threshold in elements per dense word. At 4
	// elements/word (6.25% occupancy) the dense union count beats the
	// sorted-list walk in BenchmarkKernels, and at 99% the list is about
	// 100× slower. Scan is the exception: the list visits members only, so
	// it beats the word scan at every occupancy (about 2× at 99%); the
	// threshold follows the union count, which the hot path runs more.
	sparsePerWord = 4
)

func startDense(n int) bool { return bitset.WordsFor(n) <= startDenseWords }

// promoteAt returns the element count above which a sparse set of universe n
// promotes to dense.
func promoteAt(n int) int { return sparsePerWord * bitset.WordsFor(n) }

// Set is an adaptive sparse/dense set over the universe [0, Len()).
// The zero value is an empty set of capacity 0; use New or Reset to size it.
// Methods are not safe for concurrent use.
type Set struct {
	n         int
	count     int
	dense     bool
	threshold int
	// promotions and demotions count lifetime representation switches
	// (sparse→dense crossings and Reset-time dense→sparse demotions). Both
	// live entirely on cold paths — promote() and Reset — so the counters
	// cost the hot path nothing; the flight recorder reads them to expose
	// representation churn per round window.
	promotions int64
	demotions  int64
	sp         bitset.Sparse
	dn         bitset.Set
	// dw caches dn.Words() while dense so Insert/Delete/Contains probe one
	// word in their own body instead of calling through two method layers
	// (the engine's delivery loop runs one probe per message). Invariant:
	// dw is non-empty exactly while dense — Contains dispatches on its
	// length alone. Refreshed wherever dn's backing slice can change
	// identity (promote, NewSlice, the dense branches of Reset/CopyFrom)
	// and nilled wherever the set goes sparse.
	dw []uint64
}

// New returns an empty adaptive set over universe n.
func New(n int) *Set {
	s := &Set{}
	s.Reset(n)
	return s
}

// NewSlice returns cnt empty adaptive sets over universe n. When the
// universe starts dense the word storage of all cnt sets is carved from one
// slab allocation — this is how the graph substrate materializes n adjacency
// rows in O(1) allocations per graph. Sparse sets start with no list
// storage and grow it on insert: pre-sizing each to its promotion threshold,
// as Reset does, would make n adjacency rows cost O(n²) memory.
func NewSlice(cnt, n int) []Set {
	sets := make([]Set, cnt)
	if startDense(n) {
		w := bitset.WordsFor(n)
		slab := make([]uint64, cnt*w)
		for i := range sets {
			sets[i].n = n
			sets[i].dense = true
			sets[i].dn = bitset.Wrap(n, slab[i*w:(i+1)*w:(i+1)*w])
			sets[i].dw = sets[i].dn.Words()
		}
		return sets
	}
	for i := range sets {
		sets[i].n = n
		sets[i].threshold = promoteAt(n)
		sets[i].sp.Reset(n)
	}
	return sets
}

// Len returns the universe size.
func (s *Set) Len() int { return s.n }

// Count returns the number of elements in O(1).
func (s *Set) Count() int { return s.count }

// Full reports whether every element of the universe is present, in O(1).
func (s *Set) Full() bool { return s.count == s.n }

// Reset reconfigures s into an empty set over universe n, demoting to the
// sparse representation (when the universe qualifies) while retaining both
// representations' storage for reuse.
func (s *Set) Reset(n int) {
	if n < 0 {
		n = 0
	}
	s.n = n
	s.count = 0
	if startDense(n) {
		s.dense = true
		s.dn.Reset(n)
		s.dw = s.dn.Words()
		return
	}
	if s.dense {
		s.demotions++
	}
	s.dense = false
	s.dw = nil // dispatch invariant: dw is non-empty exactly while dense
	s.threshold = promoteAt(n)
	s.sp.Reset(n)
	// Pre-size the list to the promotion threshold so sparse growth never
	// allocates mid-round.
	s.sp.Grow(s.threshold + 1)
}

// Clear empties s over its current universe, returning it to the
// representation NewSlice starts it in and keeping both representations'
// storage. Unlike Reset it does not pre-size the sparse list, so clearing n
// graph rows of a large universe costs no memory.
func (s *Set) Clear() {
	s.count = 0
	if startDense(s.n) {
		s.dn.Clear()
		return
	}
	if s.dense {
		s.demotions++
	}
	s.dense = false
	s.dw = nil // dispatch invariant: dw is non-empty exactly while dense
	s.sp.Reset(s.n)
}

// promote switches to the dense representation, reusing retained word
// storage when this set has been dense before.
func (s *Set) promote() {
	s.dn.Reset(s.n)
	s.sp.FillDense(&s.dn)
	s.dense = true
	s.promotions++
	s.dw = s.dn.Words()
}

// Promotions returns the lifetime count of sparse→dense promotions.
func (s *Set) Promotions() int64 { return s.promotions }

// Demotions returns the lifetime count of dense→sparse demotions (which
// happen only in Reset, when a previously-dense set is recycled into a
// sparse-qualifying universe).
func (s *Set) Demotions() int64 { return s.demotions }

// Add inserts i into the set. Out-of-range indices are ignored.
//
//dynspread:hotpath
func (s *Set) Add(i int) { s.Insert(i) }

// Insert adds i and reports whether it was newly inserted. Crossing the
// occupancy threshold promotes the set to dense.
//
// Insert, Delete, and Contains keep their dense branch in their own body
// and push the sparse branch behind noinline helpers, so a dense probe
// costs one call and no dispatch through the bitset layer (the engine's
// delivery loop calls them per message). They do not inline: with go1.24,
// go build -gcflags=-m=2 puts them at cost 113, 113 and 90, over the
// budget of 80.
//
//dynspread:hotpath
func (s *Set) Insert(i int) bool {
	if !s.dense || uint(i) >= uint(s.n) {
		return s.insertSlow(i)
	}
	w := uint(i) >> 6
	b := uint64(1) << (uint(i) & 63)
	if s.dw[w]&b != 0 {
		return false
	}
	s.dw[w] |= b
	s.count++
	return true
}

// insertSlow handles the sparse representation and dense out-of-range.
//
//go:noinline
func (s *Set) insertSlow(i int) bool {
	if s.dense || i < 0 || i >= s.n || !s.sp.Insert(i) {
		return false
	}
	s.count++
	if s.count > s.threshold {
		s.promote()
	}
	return true
}

// Delete removes i and reports whether it was present. Deletion never
// demotes; only Reset does.
//
//dynspread:hotpath
func (s *Set) Delete(i int) bool {
	if !s.dense || uint(i) >= uint(s.n) {
		return s.deleteSlow(i)
	}
	w := uint(i) >> 6
	b := uint64(1) << (uint(i) & 63)
	if s.dw[w]&b == 0 {
		return false
	}
	s.dw[w] &^= b
	s.count--
	return true
}

// deleteSlow handles the sparse representation and dense out-of-range.
//
//go:noinline
func (s *Set) deleteSlow(i int) bool {
	if s.dense || i < 0 || i >= s.n || !s.sp.Delete(i) {
		return false
	}
	s.count--
	return true
}

// Contains reports whether i is in the set. The dense fast path dispatches
// on the cached word slice alone: dw is non-empty exactly while the set is
// dense, and bitset keeps bits at positions ≥ n in the last word zero, so a
// probe of the tail region correctly reads false and out-of-range (or
// sparse) falls through to the slow helper. Representation dispatch and
// the bounds check are one compare; the call itself does not inline (see
// Insert).
//
//dynspread:hotpath
func (s *Set) Contains(i int) bool {
	if w := uint(i) >> 6; w < uint(len(s.dw)) {
		return s.dw[w]&(1<<uint(i&63)) != 0
	}
	return s.containsSlow(i)
}

//go:noinline
func (s *Set) containsSlow(i int) bool {
	if s.dense {
		return false // out of range
	}
	return s.sp.Contains(i)
}

// UnionCount returns |s ∪ o| without mutating s, or -1 on capacity mismatch.
//
//dynspread:hotpath
func (s *Set) UnionCount(o *bitset.Set) int {
	if s.dense {
		return s.dn.UnionCount(o)
	}
	return s.sp.UnionCountDense(o)
}

// FirstNotIn returns the smallest element of s \ o, or -1 when the
// difference is empty: FirstNotInFrom from 0. It dispatches itself rather
// than call FirstNotInFrom, which would add a call per scan.
//
//dynspread:hotpath
func (s *Set) FirstNotIn(o *bitset.Set) int {
	if s.dense {
		return s.dn.FirstNotInFrom(o, 0)
	}
	return s.sp.FirstNotInFrom(o, 0)
}

// FirstNotInFrom returns the smallest element >= from of s \ o, or -1 when
// there is none. A from below 0 scans from 0. Elements of s beyond o's
// capacity count as absent from o, mirroring bitset.Set.FirstNotInFrom.
//
//dynspread:hotpath
func (s *Set) FirstNotInFrom(o *bitset.Set, from int) int {
	if s.dense {
		return s.dn.FirstNotInFrom(o, from)
	}
	return s.sp.FirstNotInFrom(o, from)
}

// ForEach calls fn for every member in increasing order without allocating.
// It walks the dense words itself, to stay within the compiler's inlining
// budget (cost 80 of 80 with go1.24): inlined, a caller's function literal
// inlines into the loop too, where a call through fn per member would cost
// about 1.5 ns each. ForEachFrom and ScanFrom do not fit and pay that call.
func (s *Set) ForEach(fn func(int)) {
	if s.dense {
		for i, w := range s.dw {
			for ; w != 0; w &= w - 1 {
				fn(i*64 + bits.TrailingZeros64(w))
			}
		}
	} else {
		s.sp.ForEach(fn)
	}
}

// ForEachFrom calls fn for every member >= from in increasing order.
func (s *Set) ForEachFrom(from int, fn func(int)) {
	if s.dense {
		s.dn.ForEachFrom(from, fn)
		return
	}
	s.sp.ForEachFrom(from, fn)
}

// ScanFrom calls fn for every member >= from in increasing order until fn
// returns false. It reports whether the scan ran to completion.
func (s *Set) ScanFrom(from int, fn func(int) bool) bool {
	if s.dense {
		return s.dn.ScanFrom(from, fn)
	}
	return s.sp.ScanFrom(from, fn)
}

// ForEachNotInFrom calls fn for every element >= from of s \ o in increasing
// order. When both sets are dense this is a single word sweep; mixed
// representations fall back to membership probes on o.
func (s *Set) ForEachNotInFrom(o *Set, from int, fn func(int)) {
	if s.dense && o.dense {
		s.dn.ForEachNotInFrom(&o.dn, from, fn)
		return
	}
	s.ForEachFrom(from, func(e int) {
		if !o.Contains(e) {
			fn(e)
		}
	})
}

// Equal reports whether s and o hold the same elements over the same
// universe, regardless of representation.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n || s.count != o.count {
		return false
	}
	if s.dense && o.dense {
		return s.dn.Equal(&o.dn)
	}
	eq := true
	s.ScanFrom(0, func(e int) bool {
		if !o.Contains(e) {
			eq = false
			return false
		}
		return true
	})
	return eq
}

// CopyFrom makes s an exact copy of o (same elements, same representation),
// reusing s's storage when possible.
func (s *Set) CopyFrom(o *Set) {
	s.n = o.n
	s.count = o.count
	s.threshold = o.threshold
	if o.dense {
		if !s.dense {
			s.dense = true
		}
		s.dn.CopyFrom(&o.dn)
		s.dw = s.dn.Words()
		return
	}
	s.dense = false
	s.dw = nil
	s.sp.CopyFrom(&o.sp)
}
