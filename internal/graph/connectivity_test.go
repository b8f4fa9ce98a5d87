package graph

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"dynspread/internal/unionfind"
)

// fuzzSizes are the node counts FuzzGraphConnectivity picks from: one and
// several words per row, word boundaries, and n = 600, whose rows start
// sparse and promote to dense past 40 neighbours.
var fuzzSizes = []int{2, 5, 63, 64, 65, 130, 600}

// Fuzz ops. Each is opBytes bytes: the op, two little-endian uint16 node
// numbers a and b (taken mod n), and a run length. An input runs at most
// maxOps ops, which bounds the work of one exec.
const (
	opAdd = iota // of a present edge: changes nothing, picks the edge to check
	opRemove
	opLink // a to the run b, b+1, …, b+len-1 (mod n): promotes sparse rows
	opReset
	opSwap // CopyFrom the spare graph, which takes the old edge set
	opConnectify
	numOps

	opBytes = 6
	maxOps  = 256
)

// fuzzOp encodes one op for the seed corpus.
func fuzzOp(op, a, b, run int) []byte {
	out := []byte{byte(op), 0, 0, 0, 0, byte(run)}
	binary.LittleEndian.PutUint16(out[1:], uint16(a))
	binary.LittleEndian.PutUint16(out[3:], uint16(b))
	return out
}

// fuzzSeed encodes a header byte picking fuzzSizes[size] (and the spare
// graph's size) followed by ops.
func fuzzSeed(size, spare int, ops ...[]byte) []byte {
	out := []byte{byte(size + len(fuzzSizes)*spare)}
	for _, op := range ops {
		out = append(out, op...)
	}
	return out
}

// pathThroughMiddle returns the ops that add the edges of a path on n nodes
// with node 0 in its middle, so every edge is a bridge and node 0, where
// Connected's sweep starts, lies on the low side of some bridges and on the
// high side of others.
func pathThroughMiddle(n int) [][]byte {
	order := make([]int, 0, n)
	for v := 1; v <= n/2; v++ {
		order = append(order, v)
	}
	order = append(order, 0)
	for v := n/2 + 1; v < n; v++ {
		order = append(order, v)
	}
	var ops [][]byte
	for i := 0; i+1 < n; i++ {
		ops = append(ops, fuzzOp(opAdd, order[i], order[i+1], 0))
	}
	return ops
}

// recheck returns ops followed by every kth of them again: on the finished
// graph, a repeated add only checks its edge.
func recheck(k int, ops ...[]byte) [][]byte {
	out := append([][]byte(nil), ops...)
	for i := 0; i < len(ops); i += k {
		out = append(out, ops[i])
	}
	return out
}

// starChain returns the ops that build a spanning tree of 600 nodes: stars
// of up to 63 leaves around centers 0, 64, …, 576, whose rows promote to
// dense while the leaves' rows stay sparse, joined by the chain
// 64-128-192-256-320-599-0-384-448-512-576. Node 0 sits inside the chain,
// and the sparse node 599 between 0 and 320 is reached before 320, so
// some bridges are met from their low end and some from their high end,
// on dense and on sparse rows.
func starChain() [][]byte {
	var ops [][]byte
	for c := 0; c < 576; c += 64 {
		ops = append(ops, fuzzOp(opLink, c, c+1, 63))
	}
	ops = append(ops, fuzzOp(opLink, 576, 577, 22))
	chain := []int{64, 128, 192, 256, 320, 599, 0, 384, 448, 512, 576}
	var links [][]byte
	for i := 0; i+1 < len(chain); i++ {
		links = append(links, fuzzOp(opAdd, chain[i], chain[i+1], 0))
	}
	return append(ops, recheck(1, links...)...)
}

// refComponents counts the components of the graph on n nodes with the
// given edges, leaving out skip, with a union-find.
func refComponents(n int, edges []Edge, skip Edge) int {
	d := unionfind.New(n)
	for _, e := range edges {
		if e != skip {
			d.Union(e.U, e.V)
		}
	}
	return d.Components()
}

// checkConnectivity compares Connected, Components and ConnectedWithout
// with a union-find over Edges(). ConnectedWithout is checked on {a,b} if
// it is an edge and on the (a+b)th edge otherwise, on that edge written
// backwards, which removes nothing, and on an absent pair. The queries
// must not change the graph.
func checkConnectivity(g *Graph, a, b int) error {
	n, muts := g.N(), g.Mutations()
	edges := g.Edges()
	comps := refComponents(n, edges, noEdge)
	if got := g.Components(); got != comps {
		return fmt.Errorf("Components = %d, reference %d", got, comps)
	}
	for range 2 { // the second call reads the memo
		if got, want := g.Connected(), comps <= 1; got != want {
			return fmt.Errorf("Connected = %v with %d components", got, comps)
		}
	}
	if len(edges) > 0 {
		e := NewEdge(a, b)
		if !g.HasEdge(a, b) {
			e = edges[(a+b)%len(edges)]
		}
		if got, want := g.ConnectedWithout(e), refComponents(n, edges, e) <= 1; got != want {
			return fmt.Errorf("ConnectedWithout(%v) = %v, reference %v", e, got, want)
		}
		if got, want := g.ConnectedWithout(Edge{U: e.V, V: e.U}), comps <= 1; got != want {
			return fmt.Errorf("ConnectedWithout(%d,%d backwards) = %v, want Connected's %v", e.V, e.U, got, want)
		}
	}
	for i := range n {
		u, v := (a+i)%n, (b+3*i+1)%n
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if got, want := g.ConnectedWithout(NewEdge(u, v)), comps <= 1; got != want {
			return fmt.Errorf("ConnectedWithout(absent %v) = %v, want Connected's %v", NewEdge(u, v), got, want)
		}
		break
	}
	if g.Mutations() != muts {
		return fmt.Errorf("connectivity queries changed the graph (mutations %d -> %d)", muts, g.Mutations())
	}
	return nil
}

// FuzzGraphConnectivity checks the reachability sweep behind Connected,
// Components and ConnectedWithout against a union-find over Edges() after
// every op of a fuzzed sequence of edge edits, links, Resets, CopyFroms
// (across node counts) and Connectify calls.
func FuzzGraphConnectivity(f *testing.F) {
	for _, seed := range [][]byte{
		fuzzSeed(4, 4, recheck(5, pathThroughMiddle(65)...)...),                                  // rows of two words
		fuzzSeed(6, 0, starChain()...),                                                           // sparse and promoted rows
		fuzzSeed(3, 2, recheck(5, append(pathThroughMiddle(64), fuzzOp(opAdd, 1, 63, 0))...)...), // a cycle
		// Two components, joined by one bridge and split again.
		fuzzSeed(5, 1,
			fuzzOp(opLink, 0, 1, 63), fuzzOp(opLink, 64, 65, 63),
			fuzzOp(opAdd, 128, 0, 0), fuzzOp(opAdd, 129, 64, 0),
			fuzzOp(opAdd, 63, 127, 0), fuzzOp(opRemove, 127, 63, 0), fuzzOp(opSwap, 0, 0, 0)),
		// An isolated node (62) beside a star, then Connectify, before and
		// after a CopyFrom that grows the graph to a 600-node path, cut in two.
		fuzzSeed(2, 6,
			fuzzOp(opLink, 0, 1, 61), fuzzOp(opConnectify, 9, 0, 0), fuzzOp(opSwap, 0, 0, 0),
			fuzzOp(opRemove, 1, 2, 0), fuzzOp(opConnectify, 4, 0, 0), fuzzOp(opReset, 0, 0, 0)),
		// Rows promoted to dense at n = 600, then a CopyFrom to n = 5 and back.
		fuzzSeed(6, 1,
			fuzzOp(opLink, 0, 1, 63), fuzzOp(opLink, 599, 300, 63), fuzzOp(opAdd, 0, 599, 0),
			fuzzOp(opConnectify, 3, 0, 0), fuzzOp(opRemove, 0, 599, 0), fuzzOp(opSwap, 0, 0, 0),
			fuzzOp(opAdd, 1, 3, 0), fuzzOp(opSwap, 0, 0, 0), fuzzOp(opReset, 0, 0, 0)),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := New(fuzzSizes[int(data[0])%len(fuzzSizes)])
		spare := Path(fuzzSizes[int(data[0])/len(fuzzSizes)%len(fuzzSizes)])
		for ops, data := 0, data[1:]; ops < maxOps && len(data) >= opBytes; ops, data = ops+1, data[opBytes:] {
			n := g.N()
			a := int(binary.LittleEndian.Uint16(data[1:])) % n
			b := int(binary.LittleEndian.Uint16(data[3:])) % n
			switch int(data[0]) % numOps {
			case opAdd:
				g.AddEdge(a, b)
			case opRemove:
				g.RemoveEdge(a, b)
			case opLink:
				for i := range int(data[5]) % 64 {
					g.AddEdge(a, (b+i)%n)
				}
			case opReset:
				g.Reset()
			case opSwap:
				old := g.Clone()
				g.CopyFrom(spare)
				spare = old
			case opConnectify:
				Connectify(g, rand.New(rand.NewSource(int64(a))))
			}
			if err := checkConnectivity(g, a, b); err != nil {
				t.Fatalf("after op %d on a %d-node graph with %d edges: %v", data[0]%numOps, g.N(), g.M(), err)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkConnected times Connected after a one-edge toggle, which marks
// the memo stale, on a random connected graph with 2n edges: rows are dense
// at n = 32 and 64 and sparse at n = 600.
func BenchmarkConnected(b *testing.B) {
	for _, n := range []int{32, 64, 600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g := RandomConnected(n, 2*n, rng)
			u, v := 0, 1
			for g.HasEdge(u, v) {
				v++
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					g.AddEdge(u, v)
				} else {
					g.RemoveEdge(u, v)
				}
				if !g.Connected() {
					b.Fatal("disconnected")
				}
			}
		})
	}
}
