package main

// The live operator views: `spreadctl watch` follows one job over the
// JSONL stream API, and `spreadctl top` renders a refreshing one-screen
// summary of a daemon from GET /v1/metrics + GET /v1/jobs.

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"dynspread/internal/obs"
	"dynspread/internal/service"
	"dynspread/internal/wire"
)

// cmdWatch streams one job live (GET /v1/jobs/{id}/stream): per-trial
// progress to stderr, and — when the job completes — its results to stdout
// or -out, exactly as `spreadctl job` would print them. A stream that drops
// mid-job (worker restart, LB hiccup) is reattached with backoff; if the
// per-trial events were incomplete for any reason (mid-run attach, overflow
// to summary mode, a reconnect), the full result set is fetched from
// GET /v1/jobs/{id} instead, so watch's output is identical either way.
func cmdWatch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	server := fs.String("server", "", "spreadd base URL")
	id := fs.String("id", "", "job ID (or pass it as the positional argument)")
	out := fs.String("out", "", "write results JSON here instead of stdout")
	fs.Parse(args)
	if *id == "" && fs.NArg() > 0 {
		*id = fs.Arg(0)
	}
	if *id == "" {
		return fmt.Errorf("watch needs a job ID: spreadctl watch -server URL <job>")
	}
	c, err := newClient(*server)
	if err != nil {
		return err
	}
	return followAndWrite(ctx, c, *id, *out)
}

// followAndWrite follows job id with followJob, drawing progress on
// stderr, and writes the results of a done job to out ("" = stdout). It is
// both watch and submit -watch.
func followAndWrite(ctx context.Context, c *service.Client, id, out string) error {
	st, err := followJob(ctx, c, id, func(state string, completed, total int) {
		fmt.Fprintf(os.Stderr, "\rjob %s %-8s %d/%d", id, state, completed, total)
	}, func(note string) {
		fmt.Fprintf(os.Stderr, "\rjob %s: %s\n", id, note)
	})
	fmt.Fprintln(os.Stderr)
	if err != nil {
		return err
	}
	if st.State != service.JobDone {
		return fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
	}
	summarize(st.Results)
	return writeResults(out, st.Results)
}

// followBackoff is followJob's reconnect schedule: attempt i sleeps
// followBackoff[min(i, len-1)].
var followBackoff = []time.Duration{200 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second}

// followJob follows a job's stream to a terminal state, reattaching with
// backoff whenever the stream drops mid-job — a worker restart must not
// kill an operator's watch. progress is called on every stream event;
// notify (optional) reports overflow and reconnects. Permanent HTTP errors
// (the job is unknown) and context cancellation end the follow; everything
// else retries. When the per-trial events were incomplete — mid-run attach,
// overflow, any reconnect — the returned status carries results fetched
// from GET /v1/jobs/{id}, so callers always see the full set for done jobs.
func followJob(ctx context.Context, c *service.Client, id string, progress func(state string, completed, total int), notify func(note string)) (service.JobStatus, error) {
	if notify == nil {
		notify = func(string) {}
	}
	lossless := true
	for attempt := 0; ; attempt++ {
		var (
			results   []wire.TrialResult
			final     *wire.StreamEvent
			completed int
			total     int
		)
		err := c.JobStream(ctx, id, func(ev wire.StreamEvent) error {
			switch ev.Type {
			case "job":
				total = ev.Total
				completed = ev.Completed
				results = make([]wire.TrialResult, total)
				// Attaching mid-run: indices completed before the stream
				// opened never arrive as events, so stream results are
				// complete only from a fresh first attach.
				if ev.Completed != 0 || attempt > 0 {
					lossless = false
				}
				progress(ev.State, completed, total)
			case "result":
				if ev.Result != nil && ev.Index >= 0 && ev.Index < len(results) {
					results[ev.Index] = *ev.Result
				}
				completed++
				progress("running", completed, total)
			case "overflow":
				lossless = false
				notify("stream overflowed; falling back to summaries")
			case "summary":
				completed = ev.Completed
				total = ev.Total
				progress("running", completed, total)
			case "done":
				completed = ev.Completed
				total = ev.Total
				progress(ev.State, completed, total)
				e := ev
				final = &e
			}
			return nil
		})
		if final != nil {
			st := service.JobStatus{
				ID: id, State: service.JobState(final.State),
				Completed: final.Completed, Total: final.Total,
				Error: final.Error, Results: results,
			}
			if st.State == service.JobDone && !lossless {
				fetched, ferr := c.Job(ctx, id)
				if ferr != nil {
					return st, ferr
				}
				return fetched, nil
			}
			return st, nil
		}
		// The stream dropped (or ended) without a done event.
		if err != nil && service.IsPermanent(err) {
			return service.JobStatus{}, err
		}
		if ctx.Err() != nil {
			return service.JobStatus{}, ctx.Err()
		}
		lossless = false
		backoff := followBackoff[min(attempt, len(followBackoff)-1)]
		notify(fmt.Sprintf("stream dropped, reconnecting in %s (attempt %d)", backoff, attempt+1))
		select {
		case <-ctx.Done():
			return service.JobStatus{}, ctx.Err()
		case <-time.After(backoff):
		}
	}
}

// cmdTop renders a refreshing one-screen view of a daemon: queue and worker
// occupancy, jobs by state, cache hit rate, sweep-pool throughput (with
// trials/s and rounds/s rates computed from scrape-to-scrape deltas), and —
// on a coordinator — the per-worker health table.
func cmdTop(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	server := fs.String("server", "", "spreadd base URL")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	once := fs.Bool("once", false, "print one snapshot and exit (no screen clearing)")
	fs.Parse(args)
	c, err := newClient(*server)
	if err != nil {
		return err
	}

	var prev []obs.Family
	var prevAt time.Time
	for {
		raw, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		fams, err := obs.ParseText(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("parse /v1/metrics: %w", err)
		}
		jl, jobsErr := c.Jobs(ctx)
		ready := "ready"
		if rerr := c.Ready(ctx); rerr != nil {
			var he *service.HTTPError
			if errors.As(rerr, &he) && he.Message != "" {
				ready = he.Message
			} else {
				ready = "not ready"
			}
		}
		now := time.Now()
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		renderTop(c.BaseURL, ready, fams, prev, now.Sub(prevAt), jl, jobsErr)
		prev, prevAt = fams, now
		if *once {
			return nil
		}
		select {
		case <-ctx.Done():
			fmt.Println()
			return nil
		case <-time.After(*interval):
		}
	}
}

// mval reads one bare-named sample (nil labels = the unlabeled series).
func mval(fams []obs.Family, name string, labels map[string]string) float64 {
	f := obs.Find(fams, name)
	if f == nil {
		return 0
	}
	v, _ := f.Value(labels)
	return v
}

// rate computes (cur-prev)/elapsed for a counter across two scrapes,
// clamped at zero: a counter that moved BACKWARD between scrapes means the
// daemon restarted (its counters reset), and the top view should show a
// quiet 0 for that window, not a large negative rate.
func rate(cur, prev []obs.Family, name string, elapsed time.Duration) (float64, bool) {
	if prev == nil || elapsed <= 0 {
		return 0, false
	}
	d := mval(cur, name, nil) - mval(prev, name, nil)
	if d < 0 {
		d = 0
	}
	return d / elapsed.Seconds(), true
}

func renderTop(base, ready string, fams, prev []obs.Family, elapsed time.Duration, jl service.JobList, jobsErr error) {
	fmt.Printf("spreadd %s  (%s)  %s\n\n", base, ready, time.Now().Format("15:04:05"))
	fmt.Printf("queue   %.0f/%.0f   busy %.0f   streams %.0f\n",
		mval(fams, "dynspread_service_queue_depth", nil),
		mval(fams, "dynspread_service_queue_capacity", nil),
		mval(fams, "dynspread_service_busy_workers", nil),
		mval(fams, "dynspread_service_streams_active", nil))

	if jobsErr == nil {
		fmt.Printf("jobs    ")
		for _, st := range []service.JobState{service.JobQueued, service.JobRunning, service.JobDone, service.JobFailed, service.JobCanceled} {
			fmt.Printf("%s %d  ", st, jl.ByState[st])
		}
		fmt.Println()
	} else {
		fmt.Printf("jobs    (unavailable: %v)\n", jobsErr)
	}

	hits := mval(fams, "dynspread_service_cache_hits_total", nil)
	misses := mval(fams, "dynspread_service_cache_misses_total", nil)
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = 100 * hits / (hits + misses)
	}
	fmt.Printf("cache   hits %.0f  misses %.0f  (%.1f%% hit)  size %.0f/%.0f\n",
		hits, misses, hitRate,
		mval(fams, "dynspread_service_cache_size", nil),
		mval(fams, "dynspread_service_cache_capacity", nil))

	// Sweep pool (worker mode). The duration histogram's _sum/_count give
	// the mean trial time; rates come from scrape deltas.
	if pool := obs.Find(fams, "dynspread_sweep_trials_completed_total"); pool != nil {
		done := mval(fams, "dynspread_sweep_trials_completed_total", nil)
		failed := mval(fams, "dynspread_sweep_trials_failed_total", nil)
		rounds := mval(fams, "dynspread_sweep_rounds_total", nil)
		fmt.Printf("sweep   trials %.0f done / %.0f failed   rounds %.3g", done, failed, rounds)
		if durs := obs.Find(fams, "dynspread_sweep_trial_duration_seconds"); durs != nil {
			var sum, count float64
			for _, s := range durs.Samples {
				switch s.Name {
				case "dynspread_sweep_trial_duration_seconds_sum":
					sum = s.Value
				case "dynspread_sweep_trial_duration_seconds_count":
					count = s.Value
				}
			}
			if count > 0 {
				fmt.Printf("   mean trial %.1fms", 1000*sum/count)
			}
		}
		fmt.Println()
		if tr, ok := rate(fams, prev, "dynspread_sweep_trials_completed_total", elapsed); ok {
			rr, _ := rate(fams, prev, "dynspread_sweep_rounds_total", elapsed)
			fmt.Printf("rate    %.1f trials/s   %.3g rounds/s   (over last %s)\n",
				tr, rr, elapsed.Round(time.Millisecond))
		}
	}

	// Cluster coordinator: per-worker health table.
	if alive := obs.Find(fams, "dynspread_cluster_worker_alive"); alive != nil {
		fmt.Printf("cluster trials %.0f  store hits %.0f  dispatched %.0f  shards %.0f/%.0f  retries %.0f\n",
			mval(fams, "dynspread_cluster_trials_total", nil),
			mval(fams, "dynspread_cluster_store_hits_total", nil),
			mval(fams, "dynspread_cluster_dispatched_trials_total", nil),
			mval(fams, "dynspread_cluster_shards_completed_total", nil),
			mval(fams, "dynspread_cluster_shards_total", nil),
			mval(fams, "dynspread_cluster_retries_total", nil))
		fmt.Println("workers:")
		var urls []string
		for _, s := range alive.Samples {
			if w := s.Labels["worker"]; w != "" {
				urls = append(urls, w)
			}
		}
		sort.Strings(urls)
		for _, w := range urls {
			labels := map[string]string{"worker": w}
			state := "alive"
			if v, _ := alive.Value(labels); v == 0 {
				state = "DEAD"
			}
			fmt.Printf("  %-30s %-5s dispatch %.0f  retries %.0f  failures %.0f\n", w, state,
				mval(fams, "dynspread_cluster_worker_dispatch_total", labels),
				mval(fams, "dynspread_cluster_worker_retries_total", labels),
				mval(fams, "dynspread_cluster_worker_failures_total", labels))
		}
	}

	if st := obs.Find(fams, "dynspread_store_results"); st != nil {
		fmt.Printf("store   results %.0f in %.0f segments  hits %.0f/%.0f gets  appended %.3g bytes\n",
			mval(fams, "dynspread_store_results", nil),
			mval(fams, "dynspread_store_segments", nil),
			mval(fams, "dynspread_store_hits_total", nil),
			mval(fams, "dynspread_store_gets_total", nil),
			mval(fams, "dynspread_store_appended_bytes_total", nil))
	}
}
