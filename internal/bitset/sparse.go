package bitset

// Sparse is the small-occupancy set representation: a sorted list of element
// indices over the universe [0, Len()). Iteration and union-style kernels
// cost O(count) independent of the universe size — on the near-empty
// knowledge sets of the paper's early rounds that beats sweeping every dense
// word — while membership is a binary search and insertion shifts the tail.
//
// Sparse does not promote itself; the adaptive package wraps a Sparse and a
// dense Set behind one type and switches representation at a calibrated
// occupancy threshold. The zero value is an empty set of capacity 0; use
// Reset to size it.
type Sparse struct {
	n     int
	elems []int32
}

// Reset reconfigures s into an empty set over universe n, keeping the
// backing list's capacity.
func (s *Sparse) Reset(n int) {
	if n < 0 {
		n = 0
	}
	s.n = n
	s.elems = s.elems[:0]
}

// search returns the insertion position of i in the sorted element list.
func (s *Sparse) search(i int32) int {
	// Inlined binary search: sort.Search's func call shows up on the hot
	// membership path for lists this small.
	lo, hi := 0, len(s.elems)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.elems[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Contains reports whether i is in the set.
//
//dynspread:hotpath
func (s *Sparse) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	p := s.search(int32(i))
	return p < len(s.elems) && s.elems[p] == int32(i)
}

// Insert adds i, reporting whether it was newly inserted.
func (s *Sparse) Insert(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	e := int32(i)
	p := s.search(e)
	if p < len(s.elems) && s.elems[p] == e {
		return false
	}
	s.elems = append(s.elems, 0)
	copy(s.elems[p+1:], s.elems[p:])
	s.elems[p] = e
	return true
}

// Delete removes i, reporting whether it was present.
func (s *Sparse) Delete(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	e := int32(i)
	p := s.search(e)
	if p >= len(s.elems) || s.elems[p] != e {
		return false
	}
	s.elems = append(s.elems[:p], s.elems[p+1:]...)
	return true
}

// ForEach calls fn for every member in increasing order.
func (s *Sparse) ForEach(fn func(int)) {
	for _, e := range s.elems {
		fn(int(e))
	}
}

// ForEachFrom calls fn for every member >= from in increasing order.
func (s *Sparse) ForEachFrom(from int, fn func(int)) {
	if from < 0 {
		from = 0
	}
	for _, e := range s.elems[s.search(int32(from)):] {
		fn(int(e))
	}
}

// ScanFrom calls fn for every member >= from in increasing order until fn
// returns false. It reports whether the scan ran to completion.
func (s *Sparse) ScanFrom(from int, fn func(int) bool) bool {
	if from < 0 {
		from = 0
	}
	for _, e := range s.elems[s.search(int32(from)):] {
		if !fn(int(e)) {
			return false
		}
	}
	return true
}

// FirstNotInFrom returns the smallest element >= from of s \ o, or -1 when
// there is none. A from below 0 scans from 0. Elements beyond o's capacity
// count as absent from o, mirroring Set.FirstNotInFrom.
//
//dynspread:hotpath
func (s *Sparse) FirstNotInFrom(o *Set, from int) int {
	i := 0
	if from > 0 {
		i = s.search(int32(min(from, s.n)))
	}
	for _, e := range s.elems[i:] {
		if !o.Contains(int(e)) {
			return int(e)
		}
	}
	return -1
}

// UnionCountDense returns |s ∪ o| for a dense o of the same universe, or -1
// on capacity mismatch — the sparse half of the adaptive UnionCount kernel,
// costing O(count · log count) probes instead of a word sweep.
//
//dynspread:hotpath
func (s *Sparse) UnionCountDense(o *Set) int {
	if o.Len() != s.n {
		return -1
	}
	c := o.Count()
	for _, e := range s.elems {
		if !o.Contains(int(e)) {
			c++
		}
	}
	return c
}

// CopyFrom makes s an exact copy of o, reusing the backing list when it has
// capacity.
func (s *Sparse) CopyFrom(o *Sparse) {
	s.n = o.n
	s.elems = append(s.elems[:0], o.elems...)
}

// FillDense sets every element of s in the dense set d (which the caller has
// cleared) — the promotion kernel.
func (s *Sparse) FillDense(d *Set) {
	for _, e := range s.elems {
		d.Add(int(e))
	}
}

// Grow ensures the backing list can hold at least capacity elements without
// reallocating, so a pre-sized sparse set stays allocation-free until
// promotion.
func (s *Sparse) Grow(capacity int) {
	if cap(s.elems) < capacity {
		grown := make([]int32, len(s.elems), capacity)
		copy(grown, s.elems)
		s.elems = grown
	}
}
