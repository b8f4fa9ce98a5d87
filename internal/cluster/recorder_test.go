package cluster

import (
	"context"
	"reflect"
	"testing"
	"time"

	"dynspread/internal/sim"
	"dynspread/internal/store"
	"dynspread/internal/wire"
)

// stripNanos zeroes the wall-clock column of a decoded series so runs from
// different processes compare bit-identically (everything else is
// deterministic; Nanos is not).
func stripNanos(samples []sim.RoundSample) []sim.RoundSample {
	out := make([]sim.RoundSample, len(samples))
	copy(out, samples)
	for i := range out {
		out[i].Nanos = 0
	}
	return out
}

// TestClusterRecordedMatchesLocal: a recorded sweep sharded across two
// workers returns the same round series — modulo wall time — as the same
// sweep run locally, every result carries a series, and none of it lands in
// the coordinator's result store.
func TestClusterRecordedMatchesLocal(t *testing.T) {
	specs := testSpecs(t)
	w1, w2 := newWorker(t), newWorker(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	coord, err := New(Config{
		Workers:   []string{w1.URL, w2.URL},
		ShardSize: 4,
		Poll:      5 * time.Millisecond,
		Store:     st,
	})
	if err != nil {
		t.Fatal(err)
	}

	rec := &wire.RecordSpec{Stride: 2, Capacity: 256}
	dist, err := coord.RunSpecs(context.Background(), specs, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	local, err := wire.RunSpecsWith(nil, nil, 0)(context.Background(), specs, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != len(specs) || len(local) != len(specs) {
		t.Fatalf("result counts: dist=%d local=%d", len(dist), len(local))
	}
	for i := range dist {
		ds, ls := dist[i].RoundSeries, local[i].RoundSeries
		if ds == nil || ls == nil {
			t.Fatalf("trial %d missing series: dist=%v local=%v", i, ds != nil, ls != nil)
		}
		if ds.Stride != rec.Stride || ds.Capacity != rec.Capacity {
			t.Fatalf("trial %d series header: %+v", i, ds)
		}
		if !reflect.DeepEqual(stripNanos(ds.Samples()), stripNanos(ls.Samples())) {
			t.Fatalf("trial %d: distributed series diverges from local", i)
		}
	}
	// Recorded results never reach the durable store — a replayed, cached
	// result would lack the request-scoped series.
	if st.Len() != 0 {
		t.Fatalf("recorded run persisted %d results into the store", st.Len())
	}

	// The same sweep unrecorded has no series and DOES persist.
	plain, err := coord.Run(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].RoundSeries != nil {
			t.Fatalf("unrecorded trial %d carries a series", i)
		}
	}
	if st.Len() != len(specs) {
		t.Fatalf("unrecorded run persisted %d results, want %d", st.Len(), len(specs))
	}
}

// TestClusterServiceRecordedMatchesLocal: a recorded job sent to a
// coordinator-mode service (the coordinator as the service's Runner, the
// store as its run cache, as spreadd -peers -store builds it) comes back with
// the local runner's round series on every result, and the store keeps none
// of it; the same job unrecorded then persists every key.
func TestClusterServiceRecordedMatchesLocal(t *testing.T) {
	specs := testSpecs(t)
	w1, w2 := newWorker(t), newWorker(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	coord, err := New(Config{
		Workers:   []string{w1.URL, w2.URL},
		ShardSize: 4,
		Poll:      5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := newFront(t, coord, st)

	rec := &wire.RecordSpec{Stride: 2, Capacity: 256}
	recorded := runFront(t, c, wire.RunRequest{Trials: specs, Record: rec})
	local, err := wire.RunSpecsWith(nil, nil, 0)(context.Background(), specs, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recorded.Results {
		ds, ls := r.RoundSeries, local[i].RoundSeries
		if ds == nil || ls == nil {
			t.Fatalf("trial %d missing series: service=%v local=%v", i, ds != nil, ls != nil)
		}
		if !reflect.DeepEqual(stripNanos(ds.Samples()), stripNanos(ls.Samples())) {
			t.Fatalf("trial %d: coordinator-mode series diverges from local", i)
		}
	}
	if size := cacheSize(t, c); st.Len() != 0 || size != 0 {
		t.Fatalf("recorded job kept results: store %d, service cache %v", st.Len(), size)
	}

	runFront(t, c, wire.RunRequest{Trials: specs})
	if size := cacheSize(t, c); st.Len() != len(specs) || size != float64(len(specs)) {
		t.Fatalf("unrecorded job persisted %d results (cache_size %v), want %d", st.Len(), size, len(specs))
	}
}
