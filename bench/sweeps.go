package main

import (
	"context"
	"fmt"
	"time"

	"dynspread/internal/core"
	"dynspread/internal/sweep"
)

// sweep-dynamic and sweep-static are closed-loop batch workloads: one
// client runs a trial list through sweep.Run at parallelism nproc and waits
// for it to finish before submitting the next. Each of the `passes` lists
// holds `seeds` cells, and cell i holds every trial shape at trial seed
// seed·10⁶ + i; the lists do not overlap. Throughput and latency are
// medians over the passes, so a stall that slows one pass does not set the
// run's result. Latency is the time a streaming consumer waits: each
// trial's time from the start of its pass to its result reaching OnResult.

// dynamicCell is sweep-dynamic's cell: every dynamic adversary the paper
// uses, at sizes where adversary graph generation, graph diff and
// validation, and per-round allocation dominate.
func dynamicCell(seed int64) []sweep.Trial {
	t := func(n, k, s int, alg, adv string) sweep.Trial {
		return sweep.Trial{N: n, K: k, Sources: s, Algorithm: alg, Adversary: adv, Seed: seed}
	}
	oblivious := t(36, 36, 36, "oblivious", "regular")
	// E6's settings (Table 1, Theorem 3.8).
	oblivious.MaxRounds = 2000 * 36
	oblivious.Options = core.ObliviousOpts{ForceTwoPhase: true, CF: 0.05}
	return []sweep.Trial{
		t(32, 32, 1, "single-source", "churn"),
		t(32, 32, 1, "single-source", "markovian"),
		t(32, 32, 1, "single-source", "rewire"),
		t(32, 32, 1, "single-source", "regular"),
		t(32, 32, 1, "single-source", "request-cutter"),
		t(32, 64, 8, "multi-source", "churn"),
		t(32, 64, 8, "multi-source", "markovian"),
		t(32, 64, 8, "multi-source", "regular"),
		oblivious,
		t(36, 36, 36, "multi-source", "regular"),
		t(24, 24, 24, "flooding", "free-edge"),
	}
}

// staticCell is sweep-static's cell: the static adversary serves one
// long-lived graph, so adversary cost is about zero and the bitset kernels
// and message delivery dominate. Topkis at K=2048 drives the sparse-to-dense
// knowledge-set promotion.
func staticCell(seed int64) []sweep.Trial {
	t := func(n, k, s int, alg string) sweep.Trial {
		return sweep.Trial{N: n, K: k, Sources: s, Algorithm: alg, Adversary: "static", Seed: seed}
	}
	return []sweep.Trial{
		t(64, 2048, 1, "topkis"),
		t(64, 256, 64, "flooding"),
		t(64, 512, 1, "single-source"),
		t(64, 512, 1, "spanning-tree"),
	}
}

func runSweepDynamic(b *bench) error { return runSweep(b, dynamicCell) }

func runSweepStatic(b *bench) error { return runSweep(b, staticCell) }

// sweepTrials builds a trial list: n cells at trial seeds seed·10⁶ + i for
// i from first.
func sweepTrials(cell func(int64) []sweep.Trial, seed int64, first, n int) []sweep.Trial {
	var out []sweep.Trial
	for i := first; i < first+n; i++ {
		out = append(out, cell(seed*1_000_000+int64(i))...)
	}
	return out
}

// passResult is one pass over the trial list.
type passResult struct {
	results []sweep.Result
	wall    time.Duration
	latency []float64 // ms from the start of the pass, by trial index
}

// pass runs the trials once through sweep.Run. tracer may be nil.
func (b *bench) pass(trials []sweep.Trial, workers int) (passResult, error) {
	ctx, span := b.tracer.Start(context.Background(), "bench.pass")
	defer span.End()
	p := passResult{latency: make([]float64, len(trials))}
	start := time.Now()
	res, err := sweep.Run(ctx, trials, sweep.Options{
		Parallelism: workers,
		Tracer:      b.tracer,
		OnResult:    func(i int, _ sweep.Result) { p.latency[i] = ms(time.Since(start)) },
	})
	p.wall = time.Since(start)
	p.results = res
	return p, err
}

func runSweep(b *bench, cell func(int64) []sweep.Trial) error {
	lists := make([][]sweep.Trial, b.sz.passes)
	setup := make([]float64, b.sz.setups)
	for k := range setup {
		start := time.Now()
		for p := range lists {
			lists[p] = sweepTrials(cell, b.seed, p*b.sz.seeds, b.sz.seeds)
		}
		// Warm the pool with a cell outside every run's inputs, so set-up
		// does the same work at every seed.
		if _, err := b.pass(cell(-1), b.procs); err != nil {
			return err
		}
		setup[k] = time.Since(start).Seconds()
	}
	b.setup(setup)

	// Results in cell order, for the digest.
	var results []sweep.Result
	if !b.traced {
		heap := startHeap()
		var tput []float64
		var lat [][]float64
		for _, list := range lists {
			r, err := b.pass(list, b.procs)
			if err != nil {
				return err
			}
			tput = append(tput, float64(len(list))/r.wall.Seconds())
			lat = append(lat, r.latency)
			b.checkPass(list, r, nil)
			results = append(results, r.results...)
		}
		b.metric("live_heap_mb", heap.liveMB(), "MB")
		b.metric("throughput_per_s", median(tput), "1/s")
		b.note("throughput of each pass: %.4g", tput)
		b.batchLatency(lat)
	} else {
		// A third of the run untraced, then the same trials traced; at
		// least the trials the digest covers.
		var trials []sweep.Trial
		for k, list := range lists {
			if k >= max(1, len(lists)/3) && len(trials) >= digestRows {
				break
			}
			trials = append(trials, list...)
		}
		gc := readCPU()
		r, err := b.pass(trials, b.procs)
		if err != nil {
			return err
		}
		b.metric("runtime.gc_cpu_share", gc.gcShareSince(), "ratio")
		b.checkPass(trials, r, nil)
		results = r.results

		from := b.startTracing()
		tr, err := b.pass(trials, b.procs)
		spans, serr := b.stopTracing(from, time.Time{})
		if err != nil {
			return err
		}
		if serr != nil {
			return serr
		}
		b.checkPass(trials, tr, r.results)
		b.metric("trace_overhead", r.wall.Seconds()/tr.wall.Seconds(), "ratio")
		b.reportTrials(b.reportSpans(spans), tr.wall, b.procs)

		quarter := trials[:max(1, len(trials)/4)]
		serial, err := b.pass(quarter, 1)
		if err != nil {
			return err
		}
		parallel, err := b.pass(quarter, b.procs)
		if err != nil {
			return err
		}
		b.metric("sweep.parallel_speedup", serial.wall.Seconds()/parallel.wall.Seconds(), "ratio")
		if err := b.simProbe(cell(-1)); err != nil {
			return err
		}
		if err := b.probes(); err != nil {
			return err
		}
	}

	rows := make([]row, min(len(results), digestRows))
	for i := range rows {
		rows[i] = sweepRow(results[i])
	}
	b.digest = digest(rows)
	return nil
}

// checkPass checks that every trial of a pass completed, that a 5% sample
// agrees with a cold re-run with no workspace reuse and, when ref is
// non-nil, that the pass reproduced ref exactly.
func (b *bench) checkPass(trials []sweep.Trial, p passResult, ref []sweep.Result) {
	for i, r := range p.results {
		var err error
		switch {
		case !r.Res.Completed:
			err = fmt.Errorf("%s did not complete in %d rounds", r.Trial, r.Res.Rounds)
		case ref != nil:
			err = sameOutcome(r, ref[i])
		case i%20 == 0:
			var cold sweep.Result
			if cold, err = sweep.RunTrial(trials[i], nil); err == nil {
				err = sameOutcome(cold, r)
			}
		}
		b.check(err)
	}
}
