package sim

import (
	"dynspread/internal/bitset/adaptive"
	"dynspread/internal/graph"
)

// Workspace holds reusable per-execution buffers — knowledge bitsets and
// their per-token holder counts, protocol slices, per-node Send slices,
// delivery buffers, counting-sort buckets, the round's topology diff, and
// the node generators behind NodeEnv.Rng (reseeded, not reallocated, when
// a later execution's node first draws). A Workspace is NOT safe for
// concurrent use: give each worker goroutine its own (the sweep layer does
// this) and reuse it across that worker's sequential trials to cut
// per-trial allocations. A nil Config.Workspace gets a private one, which
// the execution drops when it ends.
//
// Reuse never changes results: buffers are handed out cleared, and the
// engine's semantics (delivery order, RNG draws, accounting) do not depend on
// buffer capacity.
type Workspace struct {
	know    []*adaptive.Set
	protosU []Protocol
	protosB []BroadcastProtocol
	learned [][]int // token.ID values, as choices
	// sends holds each node's Send slice for the round; sendA/sendB are
	// the sorted-delivery buffers the unicast mode ping-pongs between rounds
	// (current delivery vs. the previous round's LastSent); counts is the
	// counting-sort bucket array.
	sends  [][]Message
	sendA  []Message
	sendB  []Message
	counts []int
	// sendStamps is the bandwidth-check scratch: stamps[to] == v+1 marks "v
	// already sent to to this round" (see unicastMode.exchange).
	sendStamps []int
	choices    []int // token.ID values; int keeps the import surface small
	// holders counts, per token, the nodes whose K_v holds it (see
	// engineState.holders).
	holders []int
	diff    graph.Diff
	rngs    []nodeRng
	seeds   nodeSeeds
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// knowFor returns n cleared adaptive knowledge sets of universe k. Cached
// sets are resized in place (adaptive.Reset reuses both representations'
// storage), so sweeping the K axis at a fixed n — or the N axis at fixed K —
// stops reallocating once the worker has seen the largest shape, and a
// reused set's sparse→dense promotion reuses its retained dense words.
func (w *Workspace) knowFor(n, k int) []*adaptive.Set {
	if cap(w.know) >= n {
		w.know = w.know[:n]
	} else {
		grown := make([]*adaptive.Set, n)
		// Copy the full capacity, not just the current length: sets cached
		// by an earlier, larger run survive beyond len and stay reusable.
		copy(grown, w.know[:cap(w.know)])
		w.know = grown
	}
	for v, s := range w.know {
		if s == nil {
			w.know[v] = adaptive.New(k)
		} else {
			s.Reset(k)
		}
	}
	return w.know
}

// cleared returns a zeroed length-n slice on *buf's storage, growing it
// (and storing the growth in *buf) when its capacity is short.
func cleared[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
		return *buf
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// learnedFor returns a length-n slice of emptied per-node learned lists.
func (w *Workspace) learnedFor(n int) [][]int {
	if cap(w.learned) < n {
		w.learned = make([][]int, n)
		return w.learned
	}
	w.learned = w.learned[:n]
	for i := range w.learned {
		w.learned[i] = w.learned[i][:0]
	}
	return w.learned
}

// nodeRngsFor returns n node generators for an execution with root seed
// seed (see nodeSeeds), each with a clean read state and nothing seeded. A
// generator a node seeded in an earlier execution stays with its slot, so
// a worker allocates each node's generator once and later only reseeds the
// ones that draw.
func (w *Workspace) nodeRngsFor(n int, seed int64) []nodeRng {
	if cap(w.rngs) < n {
		grown := make([]nodeRng, n)
		copy(grown, w.rngs[:cap(w.rngs)])
		w.rngs = grown
	}
	w.rngs = w.rngs[:n]
	w.seeds.reset(seed, n)
	for v := range w.rngs {
		w.rngs[v].reset(&w.seeds, v)
	}
	return w.rngs
}
