package store

import "dynspread/internal/wire"

// Results is a content-addressed result cache: the on-disk Store and the
// service's in-memory LRU both satisfy it. Lookup is the one place that
// decides when one is read or written.
type Results interface {
	Get(key string) (wire.TrialResult, bool)
	Put(key string, res wire.TrialResult) error
}

// Batch is the outcome of Lookup: the specs that still need executing, and
// the fan-out that hands each of their results to every index asking for it.
type Batch struct {
	// Misses are the distinct specs results could not serve, normalized, in
	// order of first appearance; Keys[i] is the content address of Misses[i].
	Misses []wire.TrialSpec
	Keys   []string
	// Hits counts the spec instances served from results, duplicates
	// included; Unique counts the distinct keys among all specs.
	Hits, Unique int

	results  Results // nil when the batch records or has no cache
	indices  map[string][]int
	onResult func(i int, r wire.TrialResult)
}

// Lookup keys every spec (wire.Key), collapses duplicates, and serves each
// key results already holds to every index holding it through onResult.
// The distinct rest come back as the batch's misses, for the caller to
// execute and hand to Deliver. results may be nil (nothing cached), and so
// may onResult (nothing to deliver to).
//
// A recorded run (rec != nil) neither reads nor writes results: a cached
// result has no round series, and the series' ring parameters belong to
// the request, not the spec, so a recorded result must never be served to
// another request.
func Lookup(specs []wire.TrialSpec, results Results, rec *wire.RecordSpec, onResult func(i int, r wire.TrialResult)) *Batch {
	if rec != nil {
		results = nil
	}
	b := &Batch{results: results, indices: make(map[string][]int, len(specs)), onResult: onResult}
	var order []string // distinct keys, in order of first appearance
	for i, s := range specs {
		k := wire.Key(s)
		prev, seen := b.indices[k]
		if !seen {
			order = append(order, k)
		}
		b.indices[k] = append(prev, i)
	}
	b.Unique = len(order)
	// Every index of a key is known by now, so a hit reaches all of them.
	for _, k := range order {
		idx := b.indices[k]
		if results != nil {
			if res, ok := results.Get(k); ok {
				b.Hits += len(idx)
				b.fanOut(k, res)
				continue
			}
		}
		b.Misses = append(b.Misses, specs[idx[0]].Normalized())
		b.Keys = append(b.Keys, k)
	}
	return b
}

// Deliver records the result of the miss keyed key: it is Put into the
// batch's results (unless the batch records) and then handed to every index
// holding the key. Safe for concurrent use across distinct keys.
func (b *Batch) Deliver(key string, res wire.TrialResult) error {
	if b.results != nil {
		if err := b.results.Put(key, res); err != nil {
			return err
		}
	}
	b.fanOut(key, res)
	return nil
}

func (b *Batch) fanOut(key string, res wire.TrialResult) {
	if b.onResult == nil {
		return
	}
	for _, i := range b.indices[key] {
		b.onResult(i, res)
	}
}
