package sim

import (
	"dynspread/internal/bitset/adaptive"
	"dynspread/internal/graph"
)

// Workspace holds reusable per-execution buffers — knowledge bitsets,
// protocol slices, delivery buffers, counting-sort buckets, and the round's
// topology diff. A Workspace is NOT safe for concurrent use: give each
// worker goroutine its own (the sweep layer does this) and reuse it across
// that worker's sequential trials to cut per-trial allocations. A nil
// *Workspace is valid everywhere one is accepted and means "allocate
// privately".
//
// Reuse never changes results: buffers are handed out cleared, and the
// engine's semantics (delivery order, RNG draws, accounting) do not depend on
// buffer capacity.
type Workspace struct {
	know    []*adaptive.Set
	protosU []Protocol
	protosB []BroadcastProtocol
	learned [][]int // token.ID values, as choices
	// sendRaw collects a round's sends in protocol order; sendA/sendB are
	// the sorted-delivery buffers the unicast mode ping-pongs between rounds
	// (current delivery vs. the previous round's LastSent); counts is the
	// counting-sort bucket array.
	sendRaw []Message
	sendA   []Message
	sendB   []Message
	counts  []int
	// sendStamps is the bandwidth-check scratch: stamps[to] == v+1 marks "v
	// already sent to to this round" (see unicastMode.exchange).
	sendStamps []int
	choices    []int // token.ID values; int keeps the import surface small
	diff       graph.Diff
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// knowFor returns n cleared adaptive knowledge sets of universe k. Cached
// sets are resized in place (adaptive.Reset reuses both representations'
// storage), so sweeping the K axis at a fixed n — or the N axis at fixed K —
// stops reallocating once the worker has seen the largest shape, and a
// reused set's sparse→dense promotion reuses its retained dense words.
func (w *Workspace) knowFor(n, k int) []*adaptive.Set {
	if w == nil {
		know := make([]*adaptive.Set, n)
		for v := range know {
			know[v] = adaptive.New(k)
		}
		return know
	}
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

// protocolsFor returns a length-n nil-filled unicast protocol slice.
func (w *Workspace) protocolsFor(n int) []Protocol {
	if w == nil || cap(w.protosU) < n {
		p := make([]Protocol, n)
		if w != nil {
			w.protosU = p
		}
		return p
	}
	w.protosU = w.protosU[:n]
	for i := range w.protosU {
		w.protosU[i] = nil
	}
	return w.protosU
}

// broadcastProtocolsFor returns a length-n nil-filled broadcast protocol
// slice.
func (w *Workspace) broadcastProtocolsFor(n int) []BroadcastProtocol {
	if w == nil || cap(w.protosB) < n {
		p := make([]BroadcastProtocol, n)
		if w != nil {
			w.protosB = p
		}
		return p
	}
	w.protosB = w.protosB[:n]
	for i := range w.protosB {
		w.protosB[i] = nil
	}
	return w.protosB
}

// learnedFor returns a length-n slice of emptied per-node learned lists.
func (w *Workspace) learnedFor(n int) [][]int {
	if w == nil || cap(w.learned) < n {
		l := make([][]int, n)
		if w != nil {
			w.learned = l
		}
		return l
	}
	w.learned = w.learned[:n]
	for i := range w.learned {
		w.learned[i] = w.learned[i][:0]
	}
	return w.learned
}

// unicastBuffers returns the unicast mode's four delivery buffers (raw
// sends, sort target, LastSent, counting-sort buckets), all emptied.
func (w *Workspace) unicastBuffers() (raw, sortBuf, last []Message, counts []int) {
	if w == nil {
		return nil, nil, nil, nil
	}
	return w.sendRaw[:0], w.sendA[:0], w.sendB[:0], w.counts[:0]
}

// storeUnicastBuffers saves the (possibly regrown) buffers back for reuse.
func (w *Workspace) storeUnicastBuffers(raw, sortBuf, last []Message, counts []int) {
	if w == nil {
		return
	}
	w.sendRaw, w.sendA, w.sendB, w.counts = raw, sortBuf, last, counts
}

// sendStampsFor returns a zeroed length-n stamp array for the per-round
// bandwidth check. Clearing n machine words per round is far cheaper than
// the map hashing it replaced.
func (w *Workspace) sendStampsFor(n int) []int {
	if w == nil || cap(w.sendStamps) < n {
		s := make([]int, n)
		if w != nil {
			w.sendStamps = s
		}
		return s
	}
	s := w.sendStamps[:n]
	clear(s)
	return s
}

// diffBuf returns the Diff the engine recomputes every round with
// graph.ComputeInto; its slices keep their storage across rounds and runs.
func (w *Workspace) diffBuf() *graph.Diff {
	if w == nil {
		return new(graph.Diff)
	}
	return &w.diff
}

// choicesFor returns a length-n scratch slice for broadcast choices.
func (w *Workspace) choicesFor(n int) []int {
	if w == nil || cap(w.choices) < n {
		c := make([]int, n)
		if w != nil {
			w.choices = c
		}
		return c
	}
	w.choices = w.choices[:n]
	return w.choices
}
