// Package token defines token identities and initial token assignments for
// the k-token dissemination problem (Definition 1.2 of the paper).
//
// Every token has a dense global ID in [0, k) used for bitset bookkeeping,
// plus the pair ⟨source, index⟩ that the paper's algorithms use as the wire
// identifier (the source labels its i-th token with integer i).
package token

import (
	"fmt"
	"sort"

	"dynspread/internal/graph"
)

// ID is the dense global identifier of a token, in [0, k).
type ID = int

// None marks "no token" (the paper's ⊥ in broadcast token assignments).
const None ID = -1

// Info describes one token: the node where it initially resides and its
// per-source sequence index (1-based, matching the paper's labeling).
type Info struct {
	Source graph.NodeID
	Index  int
}

// Assignment fixes the k tokens of an instance and where they start.
type Assignment struct {
	k       int
	n       int
	infos   []Info
	bySrc   map[graph.NodeID][]ID
	sources []graph.NodeID
}

// NewAssignment builds an assignment from the initial holder of each token.
// holders[g] is the source node of global token g. Sources are numbered and
// per-source indices assigned in global-ID order.
func NewAssignment(n int, holders []graph.NodeID) (*Assignment, error) {
	a := &Assignment{
		k:     len(holders),
		n:     n,
		infos: make([]Info, len(holders)),
		bySrc: make(map[graph.NodeID][]ID),
	}
	for g, src := range holders {
		if src < 0 || src >= n {
			return nil, fmt.Errorf("token: holder %d of token %d out of range [0,%d)", src, g, n)
		}
		a.bySrc[src] = append(a.bySrc[src], g)
		a.infos[g] = Info{Source: src, Index: len(a.bySrc[src])}
	}
	a.sources = make([]graph.NodeID, 0, len(a.bySrc))
	for src := range a.bySrc {
		a.sources = append(a.sources, src)
	}
	sort.Ints(a.sources)
	return a, nil
}

// SingleSource places all k tokens at node src.
func SingleSource(n, k int, src graph.NodeID) (*Assignment, error) {
	holders := make([]graph.NodeID, k)
	for i := range holders {
		holders[i] = src
	}
	return NewAssignment(n, holders)
}

// Gossip places exactly one token at each of the n nodes (the n-gossip
// instance).
func Gossip(n int) (*Assignment, error) {
	holders := make([]graph.NodeID, n)
	for i := range holders {
		holders[i] = i
	}
	return NewAssignment(n, holders)
}

// Balanced distributes k tokens round-robin over the first s nodes
// (sources 0..s-1), so source i gets ⌈k/s⌉ or ⌊k/s⌋ tokens.
func Balanced(n, k, s int) (*Assignment, error) {
	if s <= 0 || s > n {
		return nil, fmt.Errorf("token: source count %d out of range [1,%d]", s, n)
	}
	if k < s {
		return nil, fmt.Errorf("token: k=%d < s=%d (each source needs a token)", k, s)
	}
	holders := make([]graph.NodeID, k)
	for i := range holders {
		holders[i] = i % s
	}
	return NewAssignment(n, holders)
}

// K returns the number of tokens.
func (a *Assignment) K() int { return a.k }

// N returns the number of nodes in the instance.
func (a *Assignment) N() int { return a.n }

// Info returns the source/index info of token g.
func (a *Assignment) Info(g ID) Info { return a.infos[g] }

// NumSources returns the number of distinct source nodes (the paper's s).
func (a *Assignment) NumSources() int { return len(a.sources) }

// TokensOf returns the global IDs of the tokens initially at src, in index
// order. The slice is shared; callers must not mutate it.
func (a *Assignment) TokensOf(src graph.NodeID) []ID { return a.bySrc[src] }

// RequiredLearnings returns the number of token-learning events any solving
// execution must produce: Σ_tokens (n - holders of that token at time 0).
// For one-holder-per-token assignments this is k(n-1).
func (a *Assignment) RequiredLearnings() int64 {
	return int64(a.k) * int64(a.n-1)
}
