package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynspread/internal/wire"
)

// heldJob is a server whose one job runs until the test calls release: its
// Runner blocks, so GET /v1/jobs/{id}?wait= has something to hold for.
type heldJob struct {
	*harness
	id      string
	release func()
}

// newHeldJob starts a harness (behind wrap, when non-nil) and submits one
// async job that its Runner holds running until release.
func newHeldJob(t *testing.T, wrap func(http.Handler) http.Handler) *heldJob {
	t.Helper()
	gate := make(chan struct{})
	runner := func(ctx context.Context, specs []wire.TrialSpec, _ *wire.RecordSpec, _ func(int, wire.TrialResult)) ([]wire.TrialResult, error) {
		select {
		case <-gate:
			return make([]wire.TrialResult, len(specs)), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	srv := New(Config{JobWorkers: 1, Runner: runner})
	handler := srv.Handler()
	if wrap != nil {
		handler = wrap(handler)
	}
	hs := httptest.NewServer(handler)
	h := &heldJob{harness: &harness{srv: srv, hs: hs, client: &Client{BaseURL: hs.URL, HTTPClient: hs.Client()}}}
	var once atomic.Bool
	h.release = func() {
		if once.CompareAndSwap(false, true) {
			close(gate)
		}
	}
	t.Cleanup(func() {
		h.release()
		h.close(t, context.Background())
	})
	ctx := context.Background()
	st, err := h.client.Run(ctx, wire.RunRequest{
		Trials: []wire.TrialSpec{{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: 1}},
		Async:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.id = st.ID
	deadline := time.Now().Add(5 * time.Second)
	for st.State != JobRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		if st, err = h.client.Job(ctx, h.id); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != JobRunning {
		t.Fatalf("job never started: %+v", st)
	}
	return h
}

// getJob is one GET /v1/jobs/{id}{query}, timed.
type getJob struct {
	st      JobStatus
	err     error
	elapsed time.Duration
}

// goGetJob sends GET /v1/jobs/{id}{query} in the background.
func (h *heldJob) goGetJob(ctx context.Context, id, query string) <-chan getJob {
	out := make(chan getJob, 1)
	go func() {
		start := time.Now()
		var g getJob
		_, g.err = h.client.do(ctx, http.MethodGet, "/v1/jobs/"+id+query, nil, &g.st)
		g.elapsed = time.Since(start)
		out <- g
	}()
	return out
}

// stillHeld fails the test if the GET answered within hold.
func stillHeld(t *testing.T, got <-chan getJob, hold time.Duration) {
	t.Helper()
	select {
	case g := <-got:
		t.Fatalf("held GET answered after %v: %+v (err %v)", g.elapsed, g.st, g.err)
	case <-time.After(hold):
	}
}

// await returns the GET's answer, failing the test unless it arrives within
// limit.
func await(t *testing.T, got <-chan getJob, limit time.Duration) getJob {
	t.Helper()
	select {
	case g := <-got:
		return g
	case <-time.After(limit):
		t.Fatalf("held GET still unanswered after %v", limit)
		return getJob{}
	}
}

// TestJobWaitReturnsWhenJobEnds: a GET with a 5 s wait is held while the
// job runs and answers, done with its results, within tens of ms of the
// job's end.
func TestJobWaitReturnsWhenJobEnds(t *testing.T) {
	h := newHeldJob(t, nil)
	got := h.goGetJob(context.Background(), h.id, "?wait=5s")
	stillHeld(t, got, 50*time.Millisecond)
	ended := time.Now()
	h.release()
	g := await(t, got, 4*time.Second)
	if lag := time.Since(ended); lag > 100*time.Millisecond {
		t.Fatalf("held GET answered %v after the job ended", lag)
	}
	if g.err != nil || g.st.State != JobDone || len(g.st.Results) != 1 {
		t.Fatalf("held GET: %+v (err %v)", g.st, g.err)
	}
}

// TestJobWaitElapses: once its wait elapses, a held GET answers with the
// job's live status.
func TestJobWaitElapses(t *testing.T) {
	h := newHeldJob(t, nil)
	g := await(t, h.goGetJob(context.Background(), h.id, "?wait=60ms"), 4*time.Second)
	if g.err != nil || g.st.State != JobRunning || g.st.ID != h.id {
		t.Fatalf("GET after its wait: %+v (err %v)", g.st, g.err)
	}
	if g.elapsed < 60*time.Millisecond {
		t.Fatalf("GET with a 60ms wait answered after %v", g.elapsed)
	}
}

// TestJobWaitClientGoesAway: a held GET whose client cancels ends its
// handler at once instead of sitting out its 10 s wait.
func TestJobWaitClientGoesAway(t *testing.T) {
	h := newHeldJob(t, nil)
	endpoint := map[string]string{"endpoint": "/v1/jobs/{id}"}
	before := h.metric(t, "dynspread_service_http_requests_total", endpoint)
	ctx, cancel := context.WithCancel(context.Background())
	got := h.goGetJob(ctx, h.id, "?wait=10s")
	stillHeld(t, got, 50*time.Millisecond)
	cancel()
	if g := await(t, got, 4*time.Second); !errors.Is(g.err, context.Canceled) {
		t.Fatalf("canceled GET returned %v", g.err)
	}
	// route counts a request when its handler returns.
	deadline := time.Now().Add(2 * time.Second)
	for h.metric(t, "dynspread_service_http_requests_total", endpoint) == before {
		if time.Now().After(deadline) {
			t.Fatal("handler of the canceled GET still holding after 2s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobWaitShutdown: Shutdown releases a held GET at once, with the job
// still running, while the drain itself waits for the job.
func TestJobWaitShutdown(t *testing.T) {
	h := newHeldJob(t, nil)
	got := h.goGetJob(context.Background(), h.id, "?wait=10s")
	stillHeld(t, got, 50*time.Millisecond)
	drained := make(chan error, 1)
	go func() { drained <- h.srv.Shutdown(context.Background()) }()
	g := await(t, got, 2*time.Second)
	if g.err != nil || g.st.State != JobRunning {
		t.Fatalf("GET held across Shutdown: %+v (err %v)", g.st, g.err)
	}
	h.release()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
}

// TestJobWaitErrorsAndNoWait: an unknown job is a 404 at once whatever the
// wait, a malformed or negative wait is a 400, and a GET without wait (or
// with a zero one) answers at once while the job runs.
func TestJobWaitErrorsAndNoWait(t *testing.T) {
	h := newHeldJob(t, nil)
	ctx := context.Background()
	g := await(t, h.goGetJob(ctx, "j1", "?wait=5s"), time.Second)
	var he *HTTPError
	if !errors.As(g.err, &he) || he.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job with a wait: %v", g.err)
	}
	for _, q := range []string{"?wait=soon", "?wait=-1s", "?wait=5"} {
		g := await(t, h.goGetJob(ctx, h.id, q), time.Second)
		if !errors.As(g.err, &he) || he.StatusCode != http.StatusBadRequest || !strings.Contains(he.Message, "wait") {
			t.Fatalf("GET %s: %v", q, g.err)
		}
	}
	for _, q := range []string{"", "?wait=0s"} {
		g := await(t, h.goGetJob(ctx, h.id, q), time.Second)
		if g.err != nil || g.st.State != JobRunning {
			t.Fatalf("GET %q: %+v (err %v)", q, g.st, g.err)
		}
	}
}

// TestWaitJobOutlastsClientTimeout: a job that runs longer than
// Client.Timeout is still waited for, since each held request asks for a
// wait inside that bound.
func TestWaitJobOutlastsClientTimeout(t *testing.T) {
	h := newHeldJob(t, nil)
	c := &Client{BaseURL: h.hs.URL, HTTPClient: h.hs.Client(), Timeout: 100 * time.Millisecond}
	time.AfterFunc(400*time.Millisecond, h.release)
	st, err := c.WaitJob(context.Background(), h.id, 10*time.Millisecond)
	if err != nil || st.State != JobDone {
		t.Fatalf("WaitJob: %+v (err %v)", st, err)
	}
}

// TestWaitJobPacesOlderWorker: against a server that drops the wait
// parameter, as a build without long polling does, WaitJob asks about
// once per poll interval, never in a tight loop.
func TestWaitJobPacesOlderWorker(t *testing.T) {
	var gets atomic.Int64
	h := newHeldJob(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
				gets.Add(1)
				r.URL.RawQuery = ""
			}
			next.ServeHTTP(w, r)
		})
	})
	const poll, run = 20 * time.Millisecond, 300 * time.Millisecond
	time.AfterFunc(run, h.release)
	before := gets.Load()
	start := time.Now()
	st, err := h.client.WaitJob(context.Background(), h.id, poll)
	elapsed := time.Since(start)
	if err != nil || st.State != JobDone {
		t.Fatalf("WaitJob: %+v (err %v)", st, err)
	}
	n := gets.Load() - before
	if limit := int64(elapsed/poll) + 2; n < 3 || n > limit {
		t.Fatalf("%d status GETs in %v at a %v poll, want 3 to %d", n, elapsed, poll, limit)
	}
}
