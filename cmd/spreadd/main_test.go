package main

import (
	"bytes"
	"context"
	"log/slog"
	"testing"

	"dynspread/internal/obs"
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
