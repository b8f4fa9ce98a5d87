package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dynspread/internal/wire"
)

// TestStreamVsPollParity: the concatenation of a stream's "result" events,
// placed by Index, is bit-identical to the result array GET /v1/jobs/{id}
// returns for the same job.
func TestStreamVsPollParity(t *testing.T) {
	base := runtime.NumGoroutine()
	h := newHarness(t, Config{JobWorkers: 2})
	ctx := context.Background()

	var (
		jobID    string
		streamed []wire.TrialResult
		events   []string
	)
	err := h.client.RunStream(ctx, wire.RunRequest{Grid: &e2eGrid}, func(ev wire.StreamEvent) error {
		events = append(events, ev.Type)
		switch ev.Type {
		case "job":
			jobID = ev.ID
			streamed = make([]wire.TrialResult, ev.Total)
		case "result":
			if ev.Result == nil || ev.Index < 0 || ev.Index >= len(streamed) {
				t.Errorf("bad result event: %+v", ev)
				return nil
			}
			streamed[ev.Index] = *ev.Result
		case "overflow":
			t.Error("stream overflowed with the default buffer; parity cannot hold")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0] != "job" || events[len(events)-1] != "done" {
		t.Fatalf("stream not bracketed by job/done: %v", events)
	}
	polled, err := h.client.Job(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if polled.State != JobDone || len(polled.Results) != len(streamed) {
		t.Fatalf("polled job: %+v", polled)
	}
	sj, _ := json.Marshal(streamed)
	pj, _ := json.Marshal(polled.Results)
	if string(sj) != string(pj) {
		t.Fatal("streamed results are not bit-identical to the polled result array")
	}

	h.close(t, ctx)
	waitGoroutines(t, base)
}

// TestStreamClientDisconnect: a client killed mid-stream neither leaks a
// goroutine nor stalls the pool — the job runs to completion and its full
// results remain fetchable.
func TestStreamClientDisconnect(t *testing.T) {
	base := runtime.NumGoroutine()
	h := newHarness(t, Config{JobWorkers: 2})
	ctx := context.Background()

	streamCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var jobID string
	errAbort := errors.New("client walked away")
	err := h.client.RunStream(streamCtx, wire.RunRequest{Grid: &e2eGrid}, func(ev wire.StreamEvent) error {
		if ev.Type == "job" {
			jobID = ev.ID
		}
		if ev.Type == "result" {
			cancel() // hang up after the first result
			return errAbort
		}
		return nil
	})
	if !errors.Is(err, errAbort) && !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted stream returned %v", err)
	}
	if jobID == "" {
		t.Fatal("no job event before disconnect")
	}

	// The pool must finish the job as if nothing happened.
	st, err := h.client.WaitJob(ctx, jobID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	total := len(mustTrials(t, e2eGrid))
	if st.State != JobDone || st.Completed != total || len(st.Results) != total {
		t.Fatalf("job after disconnect: state=%s completed=%d results=%d", st.State, st.Completed, len(st.Results))
	}

	h.close(t, ctx)
	waitGoroutines(t, base)
}

func mustTrials(t *testing.T, g wire.GridSpec) []wire.TrialSpec {
	t.Helper()
	specs, err := g.Trials()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// TestStreamOverflowHandler drives the overflow path deterministically at
// the handler level: a 1-slot subscriber that received three deliveries has
// lost two, so the stream must flush the surviving prefix, announce
// "overflow", and still end with a correct "done" — never block or drop the
// terminal event.
func TestStreamOverflowHandler(t *testing.T) {
	h := newHarness(t, Config{})
	ctx := context.Background()
	defer h.close(t, ctx)

	specs := make([]wire.TrialSpec, 3)
	j := newJob("joverflow", 99, specs)
	sub := j.subscribe(1)
	j.setRunning()
	var results [3]wire.TrialResult
	for i := range results {
		results[i].Rounds = i + 1
		j.deliver(i, results[i])
	}
	if !sub.lost.Load() {
		t.Fatal("1-slot subscriber survived 3 deliveries")
	}
	j.finish(nil)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/jobs/joverflow/stream", nil)
	h.srv.streamJob(rec, req, j, sub)

	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var types []string
	dec := json.NewDecoder(strings.NewReader(rec.Body.String()))
	for dec.More() {
		var ev wire.StreamEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		types = append(types, ev.Type)
		if ev.Type == "done" && (ev.State != string(JobDone) || ev.Completed != 3) {
			t.Fatalf("done event wrong: %+v", ev)
		}
	}
	// The surviving buffered result, the overflow marker, then done.
	want := []string{"job", "result", "overflow", "done"}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("event sequence %v, want %v", types, want)
	}
	if h.srv.metrics.streamOverflows.Value() != 1 {
		t.Fatalf("overflow counter = %d, want 1", h.srv.metrics.streamOverflows.Value())
	}
}

// TestStreamSlowConsumerFallback: with a 1-event buffer and a fully cached
// grid (runJob delivers every result in one tight loop), the stream drops to
// summary mode instead of blocking the delivery path — and the full result
// set stays available from the job endpoint regardless.
func TestStreamSlowConsumerFallback(t *testing.T) {
	base := runtime.NumGoroutine()
	h := newHarness(t, Config{JobWorkers: 1, StreamBuffer: 1, SyncTrialLimit: 1})
	ctx := context.Background()

	// Prime the cache so the streamed submission is delivered in-loop.
	first, err := h.client.Run(ctx, wire.RunRequest{Grid: &e2eGrid, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.client.WaitJob(ctx, first.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var jobID string
	sawOverflow := false
	resultEvents := 0
	err = h.client.RunStream(ctx, wire.RunRequest{Grid: &e2eGrid}, func(ev wire.StreamEvent) error {
		switch ev.Type {
		case "job":
			jobID = ev.ID
		case "result":
			resultEvents++
		case "overflow":
			sawOverflow = true
		case "done":
			if ev.State != string(JobDone) {
				t.Errorf("done state %q", ev.State)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := len(mustTrials(t, e2eGrid))
	// A 1-slot buffer against a tight cache-hit delivery loop overflows in
	// practice; either way the contract holds: every result arrived as an
	// event, or the overflow marker explains the shortfall.
	if !sawOverflow && resultEvents != total {
		t.Fatalf("lossless stream delivered %d/%d results", resultEvents, total)
	}
	if sawOverflow && resultEvents >= total {
		t.Fatalf("overflow announced but all %d results arrived", total)
	}
	st, err := h.client.Job(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone || len(st.Results) != total {
		t.Fatalf("job after overflow: %+v", st)
	}

	h.close(t, ctx)
	waitGoroutines(t, base)
}

// TestReadyz: readiness flips to 503 exactly when a submission would be
// refused — queue at capacity, then shutdown — while liveness stays 200
// throughout.
func TestReadyz(t *testing.T) {
	block := make(chan struct{})
	runner := func(ctx context.Context, specs []wire.TrialSpec, _ *wire.RecordSpec, _ func(int, wire.TrialResult)) ([]wire.TrialResult, error) {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return make([]wire.TrialResult, len(specs)), nil
	}
	h := newHarness(t, Config{QueueDepth: 1, JobWorkers: 1, Runner: runner})
	ctx := context.Background()

	if err := h.client.Ready(ctx); err != nil {
		t.Fatalf("fresh server not ready: %v", err)
	}

	spec := wire.TrialSpec{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: 1}
	req := wire.RunRequest{Trials: []wire.TrialSpec{spec}, Async: true}
	if _, err := h.client.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to take the first job off the queue...
	deadline := time.Now().Add(5 * time.Second)
	for h.srv.busy.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// ...then occupy the queue's only slot.
	if _, err := h.client.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	err := h.client.Ready(ctx)
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != 503 || !strings.Contains(he.Message, "queue_full") {
		t.Fatalf("full queue readiness: %v", err)
	}
	if err := h.client.Health(ctx); err != nil {
		t.Fatalf("liveness failed on a full queue: %v", err)
	}

	close(block)
	h.close(t, ctx)

	// The handler still answers after Shutdown (the process is alive), but
	// readiness must say the server is going away. Re-serve the handler since
	// the harness's listener is closed.
	hs := httptest.NewServer(h.srv.Handler())
	defer hs.Close()
	c := &Client{BaseURL: hs.URL, HTTPClient: hs.Client()}
	err = c.Ready(ctx)
	if !errors.As(err, &he) || he.StatusCode != 503 || !strings.Contains(he.Message, "shutting_down") {
		t.Fatalf("post-shutdown readiness: %v", err)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("post-shutdown liveness: %v", err)
	}
}
