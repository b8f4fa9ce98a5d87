package graph

import "dynspread/internal/bitset/adaptive"

// Diff captures the topological change between two consecutive round graphs:
// Inserted = E_r \ E_{r-1} (the paper's E+_r) and Removed = E_{r-1} \ E_r
// (E-_r). Both slices are in canonical sorted order.
type Diff struct {
	Inserted []Edge
	Removed  []Edge
}

// Compute returns the diff from prev to next in freshly allocated slices
// (see ComputeInto).
func Compute(prev, next *Graph) Diff {
	var d Diff
	ComputeInto(&d, prev, next)
	return d
}

// ComputeInto overwrites *d with the diff from prev to next, appending into
// the storage of d's slices, so a caller that keeps one Diff across rounds
// stops allocating once the slices have grown. A nil prev is treated as the
// empty graph G_0 = (V, ∅), matching the paper's convention E_0 := ∅.
func ComputeInto(d *Diff, prev, next *Graph) {
	d.Inserted = d.Inserted[:0]
	d.Removed = d.Removed[:0]
	switch {
	case prev == next:
		// Same snapshot object (e.g. a static adversary serving one graph
		// every round): the diff is empty by definition, and skipping the
		// edge-set walks keeps the round loop cheap.
	case next == nil:
		d.Removed = prev.AppendEdges(d.Removed)
	case prev == nil:
		d.Inserted = next.AppendEdges(d.Inserted)
	default:
		d.Inserted = appendEdgeDiff(d.Inserted, next, prev)
		d.Removed = appendEdgeDiff(d.Removed, prev, next)
	}
}

// appendEdgeDiff appends the canonical edges of a \ b in sorted order — a
// row-wise set difference per node, so the common case of two mostly-equal
// round graphs costs a word sweep per row instead of two full edge-set walks
// with per-edge hash probes.
func appendEdgeDiff(out []Edge, a, b *Graph) []Edge {
	var empty adaptive.Set
	for v := 0; v < a.n; v++ {
		brow := &empty
		if v < b.n {
			brow = &b.adj[v]
		}
		a.adj[v].ForEachNotInFrom(brow, v+1, func(u int) {
			out = append(out, Edge{U: v, V: u})
		})
	}
	return out
}

// StabilityTracker verifies σ-edge-stability of a dynamic graph sequence as
// defined in the paper: after an edge appears, it must remain present for at
// least σ consecutive rounds. Feed it every round's Diff in order.
type StabilityTracker struct {
	sigma      int
	round      int
	insertedAt map[Edge]int // round the edge was last inserted
	violations []StabilityViolation
}

// StabilityViolation records an edge removed before its σ rounds elapsed.
type StabilityViolation struct {
	E          Edge
	InsertedAt int
	RemovedAt  int // the round in which the edge is no longer present
}

// NewStabilityTracker returns a tracker for σ-edge-stability (σ >= 1).
func NewStabilityTracker(sigma int) *StabilityTracker {
	if sigma < 1 {
		sigma = 1
	}
	return &StabilityTracker{
		sigma:      sigma,
		insertedAt: make(map[Edge]int),
	}
}

// Observe records the next round's topology change (rounds are 1-based; the
// first diff is taken against the empty graph G_0). It retains nothing of d.
func (t *StabilityTracker) Observe(d Diff) {
	t.round++
	for _, e := range d.Removed {
		ins := t.insertedAt[e]
		// The edge existed during rounds [ins, t.round-1]; lifetime in rounds:
		life := t.round - ins
		if life < t.sigma {
			t.violations = append(t.violations, StabilityViolation{
				E:          e,
				InsertedAt: ins,
				RemovedAt:  t.round,
			})
		}
		delete(t.insertedAt, e)
	}
	for _, e := range d.Inserted {
		t.insertedAt[e] = t.round
	}
}

// Violations returns all σ-stability violations observed so far.
func (t *StabilityTracker) Violations() []StabilityViolation { return t.violations }

// OK reports whether no violation has been observed.
func (t *StabilityTracker) OK() bool { return len(t.violations) == 0 }
