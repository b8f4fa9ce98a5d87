package cluster

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"dynspread/internal/obs"
	"dynspread/internal/service"
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
// coordinator-mode service (the coordinator as the service's Runner) comes
// back with the local runner's round series on every result, and neither
// the service's run cache nor the coordinator's store keeps any of it; the
// same job unrecorded then persists every key.
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
		Store:     st,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := service.New(service.Config{JobWorkers: 2, Runner: coord.RunSpecs})
	fs := httptest.NewServer(front.Handler())
	t.Cleanup(func() {
		fs.Close()
		front.Shutdown(context.Background())
	})
	c := &service.Client{BaseURL: fs.URL, Timeout: time.Minute}
	ctx := context.Background()
	cacheSize := func() float64 {
		t.Helper()
		raw, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		fams, err := obs.ParseText(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		v, ok := obs.Find(fams, "dynspread_service_cache_size").Value(nil)
		if !ok {
			t.Fatal("dynspread_service_cache_size missing from /v1/metrics")
		}
		return v
	}
	run := func(rec *wire.RecordSpec) service.JobStatus {
		t.Helper()
		js, err := c.Run(ctx, wire.RunRequest{Trials: specs, Record: rec, Async: true})
		if err != nil {
			t.Fatal(err)
		}
		if js, err = c.WaitJob(ctx, js.ID, 5*time.Millisecond); err != nil || js.State != service.JobDone {
			t.Fatalf("job ended %q (err %v): %s", js.State, err, js.Error)
		}
		return js
	}

	rec := &wire.RecordSpec{Stride: 2, Capacity: 256}
	recorded := run(rec)
	local, err := wire.RunSpecsWith(nil, nil, 0)(ctx, specs, rec, nil)
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
	if st.Len() != 0 || cacheSize() != 0 {
		t.Fatalf("recorded job kept results: store %d, service cache %v", st.Len(), cacheSize())
	}

	run(nil)
	if st.Len() != len(specs) {
		t.Fatalf("unrecorded job persisted %d results, want %d", st.Len(), len(specs))
	}
}
