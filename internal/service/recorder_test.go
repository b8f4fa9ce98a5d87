package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"dynspread/internal/store"
	"dynspread/internal/wire"
)

// recordGrid is a small deterministic sweep for recorded-run tests.
var recordGrid = wire.GridSpec{
	Ns:          []int{12},
	Ks:          []int{8},
	Algorithms:  []string{"single-source"},
	Adversaries: []string{"static"},
	Seeds:       []int64{1, 2, 3},
}

// TestServiceRecordedRun: a run submitted with a record spec returns a round
// series on every result, the series is also served by GET /v1/jobs/{id}/rounds,
// and recorded runs bypass the cache in both directions — resubmitting the
// identical recorded sweep recomputes everything and still carries series.
func TestServiceRecordedRun(t *testing.T) {
	base := runtime.NumGoroutine()
	h := newHarness(t, Config{JobWorkers: 2})
	ctx := context.Background()

	req := wire.RunRequest{Grid: &recordGrid, Record: &wire.RecordSpec{Stride: 2, Capacity: 64}}
	st, err := h.client.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := h.client.WaitJob(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone || len(done.Results) != 3 {
		t.Fatalf("job: %+v", done)
	}
	for i, r := range done.Results {
		s := r.RoundSeries
		if s == nil || s.Len() == 0 {
			t.Fatalf("result %d has no round series", i)
		}
		if s.Stride != 2 || s.Capacity != 64 {
			t.Fatalf("result %d series header: stride=%d capacity=%d", i, s.Stride, s.Capacity)
		}
		samples := s.Samples()
		last := samples[len(samples)-1]
		if last.Round != r.Rounds {
			t.Fatalf("result %d: final sample round %d != result rounds %d", i, last.Round, r.Rounds)
		}
		if nk := int64(r.Trial.N) * int64(r.Trial.K); last.Known != nk {
			t.Fatalf("result %d: final Known %d != n·k %d", i, last.Known, nk)
		}
	}

	// The rounds view serves the same series the results embed.
	var jr JobRounds
	if _, err := h.client.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/rounds", nil, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.ID != st.ID || len(jr.Series) != len(done.Results) {
		t.Fatalf("rounds view: %+v", jr)
	}
	for i := range jr.Series {
		want, _ := json.Marshal(done.Results[i].RoundSeries)
		got, _ := json.Marshal(jr.Series[i])
		if string(want) != string(got) {
			t.Fatalf("rounds view series %d differs from the embedded result series", i)
		}
	}

	// Recorded runs never touch the cache: the resubmission is all misses and
	// still produces series (nothing stale and series-free was served).
	again, err := h.client.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	againDone, err := h.client.WaitJob(ctx, again.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if againDone.CacheHits != 0 || againDone.CacheMisses != 3 {
		t.Fatalf("recorded resubmission hit the cache: %+v", againDone)
	}
	for i, r := range againDone.Results {
		if r.RoundSeries == nil {
			t.Fatalf("resubmitted result %d lost its series", i)
		}
	}

	// And an UNRECORDED submission of the same specs is also all misses —
	// proving the recorded runs did not populate the cache either.
	plain, err := h.client.Run(ctx, wire.RunRequest{Grid: &recordGrid})
	if err != nil {
		t.Fatal(err)
	}
	plainDone, err := h.client.WaitJob(ctx, plain.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if plainDone.CacheHits != 0 || plainDone.CacheMisses != 3 {
		t.Fatalf("recorded runs leaked into the cache: %+v", plainDone)
	}
	for i, r := range plainDone.Results {
		if r.RoundSeries != nil {
			t.Fatalf("unrecorded result %d carries a series", i)
		}
	}

	h.close(t, ctx)
	waitGoroutines(t, base)
}

// TestServiceRecordedStreamParity: the round_series events on a recorded
// job's stream are bit-identical to the series embedded in the polled
// results.
func TestServiceRecordedStreamParity(t *testing.T) {
	base := runtime.NumGoroutine()
	h := newHarness(t, Config{JobWorkers: 2})
	ctx := context.Background()

	var (
		jobID    string
		streamed []*wire.RoundSeries
	)
	req := wire.RunRequest{Grid: &recordGrid, Record: &wire.RecordSpec{Stride: 1, Capacity: 128}}
	err := h.client.RunStream(ctx, req, func(ev wire.StreamEvent) error {
		switch ev.Type {
		case "job":
			jobID = ev.ID
			streamed = make([]*wire.RoundSeries, ev.Total)
		case "round_series":
			if ev.Series == nil || ev.Index < 0 || ev.Index >= len(streamed) {
				t.Errorf("bad round_series event: %+v", ev)
				return nil
			}
			streamed[ev.Index] = ev.Series
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	polled, err := h.client.Job(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if polled.State != JobDone || len(polled.Results) != len(streamed) {
		t.Fatalf("polled job: %+v", polled)
	}
	for i, r := range polled.Results {
		if streamed[i] == nil {
			t.Fatalf("no round_series event streamed for trial %d", i)
		}
		sj, _ := json.Marshal(streamed[i])
		pj, _ := json.Marshal(r.RoundSeries)
		if string(sj) != string(pj) {
			t.Fatalf("trial %d: streamed series differs from polled series", i)
		}
	}

	h.close(t, ctx)
	waitGoroutines(t, base)
}

// TestServiceRoundsErrors: the rounds view 404s for unknown and unrecorded
// jobs, and run submission rejects an invalid record spec outright.
func TestServiceRoundsErrors(t *testing.T) {
	base := runtime.NumGoroutine()
	h := newHarness(t, Config{JobWorkers: 1})
	ctx := context.Background()

	wantStatus := func(err error, code int) {
		t.Helper()
		var he *HTTPError
		if !errors.As(err, &he) || he.StatusCode != code {
			t.Fatalf("got %v, want HTTP %d", err, code)
		}
	}

	_, err := h.client.do(ctx, http.MethodGet, "/v1/jobs/nope/rounds", nil, nil)
	wantStatus(err, 404)

	// An unrecorded job exists but has no rounds view.
	st, err := h.client.Run(ctx, wire.RunRequest{Grid: &recordGrid})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.client.WaitJob(ctx, st.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_, err = h.client.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/rounds", nil, nil)
	wantStatus(err, 404)

	// An out-of-range record spec is a 400 at submission, not a late failure.
	bad := wire.RunRequest{Grid: &recordGrid, Record: &wire.RecordSpec{Stride: -1}}
	_, err = h.client.Run(ctx, bad)
	wantStatus(err, 400)

	h.close(t, ctx)
	waitGoroutines(t, base)
}

// TestServiceProfileCapture: the debug profile plane end to end — capture a
// heap and a short CPU profile, list both, download the bytes — plus the 503
// a store-less service answers with.
func TestServiceProfileCapture(t *testing.T) {
	base := runtime.NumGoroutine()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := newHarness(t, Config{JobWorkers: 1, Store: st})
	ctx := context.Background()

	var heap, cpu store.ProfileInfo
	if _, err := h.client.do(ctx, http.MethodPost, "/v1/debug/profile?kind=heap", nil, &heap); err != nil {
		t.Fatal(err)
	}
	if heap.Kind != "heap" || heap.Bytes == 0 {
		t.Fatalf("heap capture: %+v", heap)
	}
	if _, err := h.client.do(ctx, http.MethodPost, "/v1/debug/profile?kind=cpu&seconds=1", nil, &cpu); err != nil {
		t.Fatal(err)
	}
	if cpu.Kind != "cpu" || cpu.Bytes == 0 {
		t.Fatalf("cpu capture: %+v", cpu)
	}

	var list ProfileList
	if _, err := h.client.do(ctx, http.MethodGet, "/v1/debug/profiles", nil, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Profiles) != 2 {
		t.Fatalf("profile listing: %+v", list)
	}
	// The download is raw pprof bytes, not JSON.
	get := func(id string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(h.client.BaseURL + "/v1/debug/profiles/" + id)
		if err != nil {
			t.Fatalf("download %s: %v", id, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("download %s: %v", id, err)
		}
		return resp, data
	}
	for _, info := range list.Profiles {
		resp, data := get(info.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("download %s: HTTP %d", info.ID, resp.StatusCode)
		}
		if int64(len(data)) != info.Bytes {
			t.Fatalf("profile %s: downloaded %d bytes, listed %d", info.ID, len(data), info.Bytes)
		}
	}

	// Unknown kind and unknown ID are client errors, not captures.
	if _, err := h.client.do(ctx, http.MethodPost, "/v1/debug/profile?kind=goroutine", nil, nil); err == nil {
		t.Fatal("unknown profile kind accepted")
	}
	if resp, _ := get("profile-00000000000000000000-cpu.pprof"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown profile download: HTTP %d", resp.StatusCode)
	}

	h.close(t, ctx)
	waitGoroutines(t, base)
}

// TestServiceProfilesDisabled: without a configured store every debug
// profile endpoint answers 503 with a hint, never a panic.
func TestServiceProfilesDisabled(t *testing.T) {
	base := runtime.NumGoroutine()
	h := newHarness(t, Config{JobWorkers: 1})
	ctx := context.Background()

	var he *HTTPError
	if _, err := h.client.do(ctx, http.MethodPost, "/v1/debug/profile?kind=heap", nil, nil); !errors.As(err, &he) || he.StatusCode != 503 {
		t.Fatalf("capture without store: %v", err)
	}
	if _, err := h.client.do(ctx, http.MethodGet, "/v1/debug/profiles", nil, nil); !errors.As(err, &he) || he.StatusCode != 503 {
		t.Fatalf("listing without store: %v", err)
	}

	h.close(t, ctx)
	waitGoroutines(t, base)
}
