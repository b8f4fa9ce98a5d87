package cluster

import (
	"sort"

	"dynspread/internal/store"
	"dynspread/internal/wire"
)

// DefaultShardSize is the target number of trials per shard: large enough
// that one dispatch amortizes its HTTP round trip over a worker's whole
// sweep pool, small enough that losing a worker mid-shard wastes little
// work and stragglers rebalance.
const DefaultShardSize = 16

// planBatch plans the shards of a distributed sweep from a Lookup's misses,
// which are already deduplicated by content address and keyed, so the
// coordinator never hashes a spec twice. It sorts b's misses by key in
// place and chunks them into size-balanced shards of at most shardSize
// trials (shardSize <= 0 selects DefaultShardSize; sizes across shards
// differ by at most one). The shards share b's backing arrays.
//
// The plan is a deterministic function of the trial SET alone — duplicate
// and reordered inputs, and any number of workers, yield byte-identical
// shards. That determinism is what makes a resumed or re-run sweep line up
// with its predecessor's shard boundaries, so progress accounting and
// result logs from different attempts compose.
func planBatch(b *store.Batch, shardSize int) []wire.ShardRequest {
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	n := len(b.Misses)
	if n == 0 {
		return nil
	}
	sort.Sort(byKey{b})

	shards := (n + shardSize - 1) / shardSize
	base, extra := n/shards, n%shards // first `extra` shards get base+1
	plan := make([]wire.ShardRequest, 0, shards)
	at := 0
	for i := 0; i < shards; i++ {
		size := base
		if i < extra {
			size++
		}
		plan = append(plan, wire.ShardRequest{
			Shard:  i,
			Shards: shards,
			Keys:   b.Keys[at : at+size : at+size],
			Trials: b.Misses[at : at+size : at+size],
		})
		at += size
	}
	return plan
}

// byKey sorts a batch's misses by content address.
type byKey struct{ b *store.Batch }

func (s byKey) Len() int           { return len(s.b.Keys) }
func (s byKey) Less(i, j int) bool { return s.b.Keys[i] < s.b.Keys[j] }
func (s byKey) Swap(i, j int) {
	s.b.Keys[i], s.b.Keys[j] = s.b.Keys[j], s.b.Keys[i]
	s.b.Misses[i], s.b.Misses[j] = s.b.Misses[j], s.b.Misses[i]
}
