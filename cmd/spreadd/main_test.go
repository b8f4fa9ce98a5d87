package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"testing"
	"time"

	"dynspread/internal/obs"
	"dynspread/internal/service"
	"dynspread/internal/wire"
)

// TestAssembledRegistry builds the daemon in worker mode and in coordinator
// mode, each with a store and tracing, and scrapes the one registry every
// layer reports to. This is the only place the service's, the cluster's and
// the store's metric families share a registry, so a name two layers both
// create panics here.
func TestAssembledRegistry(t *testing.T) {
	cases := []struct {
		name  string
		opts  options
		layer []string // one family per layer the mode assembles
	}{
		{
			name:  "worker",
			opts:  options{storeDir: t.TempDir(), traceRing: 16},
			layer: []string{"dynspread_service_cache_size", "dynspread_sweep_trials_completed_total", "dynspread_store_results", "dynspread_tracing_spans"},
		},
		{
			// The peers need not be up: the coordinator dials them per shard.
			name:  "coordinator",
			opts:  options{storeDir: t.TempDir(), traceRing: 16, peers: "127.0.0.1:1,127.0.0.1:2"},
			layer: []string{"dynspread_service_cache_size", "dynspread_cluster_worker_alive", "dynspread_store_results", "dynspread_tracing_spans"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := assemble(tc.opts, slog.New(slog.DiscardHandler))
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			defer d.svc.Shutdown(context.Background())

			var scrape bytes.Buffer
			if _, err := d.reg.WriteTo(&scrape); err != nil {
				t.Fatal(err)
			}
			fams, err := obs.ParseText(&scrape)
			if err != nil {
				t.Fatalf("%s: scrape does not parse: %v", d.mode, err)
			}
			for _, name := range tc.layer {
				if obs.Find(fams, name) == nil {
					t.Errorf("%s: %s missing from the scrape", d.mode, name)
				}
			}
		})
	}
}

// TestShutdownAnswersHeldStatus: with one job running and one queued behind
// it, a status request held on the queued job is answered at once when
// shutdown begins. Had the HTTP server's shutdown waited for the hold
// before the service's drain began, the answer would have come only when
// its 10 s wait ran out.
func TestShutdownAnswersHeldStatus(t *testing.T) {
	gate := make(chan struct{})
	runner := func(ctx context.Context, specs []wire.TrialSpec, _ *wire.RecordSpec, _ func(int, wire.TrialResult)) ([]wire.TrialResult, error) {
		select {
		case <-gate:
			return make([]wire.TrialResult, len(specs)), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	svc := service.New(service.Config{JobWorkers: 1, Runner: runner})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	client := &service.Client{BaseURL: base}
	ctx := context.Background()
	var ids []string
	for seed := range int64(2) {
		st, err := client.Run(ctx, wire.RunRequest{
			Trials: []wire.TrialSpec{{N: 8, K: 4, Algorithm: "single-source", Adversary: "static", Seed: seed}},
			Async:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := client.Job(ctx, ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if st.State == service.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job never started: %+v", st)
		}
	}

	held := make(chan service.JobStatus, 1)
	go func() {
		var st service.JobStatus
		if resp, err := http.Get(base + "/v1/jobs/" + ids[1] + "?wait=10s"); err == nil {
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		held <- st
	}()
	time.Sleep(50 * time.Millisecond) // let the GET reach its hold
	stopped := make(chan error, 1)
	go func() {
		httpErr, drainErr := shutdown(ctx, httpSrv, svc)
		stopped <- errors.Join(httpErr, drainErr)
	}()
	select {
	case st := <-held:
		if st.State != service.JobQueued {
			t.Errorf("held GET answered %+v, want the queued job", st)
		}
	case <-time.After(2 * time.Second):
		t.Error("held GET still unanswered 2s into shutdown")
	}
	close(gate)
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
}
