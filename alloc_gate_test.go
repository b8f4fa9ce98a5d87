package dynspread_test

// The allocation gate of the round hot path: once buffers are warm, a
// steady-state round must allocate NOTHING — in unicast mode (value-typed
// messages, counting-sort delivery, workspace buffers) and in broadcast
// mode (choice and learned-token buffers). The gate measures per-round
// allocations differentially: two executions of the same deterministic
// trial that differ only in MaxRounds allocate identically during setup and
// during their shared prefix, so any difference is exactly the allocation
// cost of the extra steady-state rounds.

import (
	"math/bits"
	"runtime/debug"
	"testing"
	"time"

	"dynspread"
	"dynspread/internal/bitset"
	"dynspread/internal/bitset/adaptive"
	"dynspread/internal/sim"
	"dynspread/internal/sweep"
)

// perRoundAllocs returns the average allocations per steady-state round of
// run between rounds r1 and r2 (both below the trial's completion round).
// run(rounds) executes the trial capped at that many rounds on a workspace
// it reuses across calls.
func perRoundAllocs(run func(rounds int), r1, r2 int) float64 {
	run(r2) // warm the workspace to the largest shape
	a1 := testing.AllocsPerRun(3, func() { run(r1) })
	a2 := testing.AllocsPerRun(3, func() { run(r2) })
	return (a2 - a1) / float64(r2-r1)
}

// facadeRun returns cfg as a perRoundAllocs run function: dynspread.Run on
// one reused workspace, failing the test if the trial completes.
func facadeRun(t *testing.T, cfg dynspread.Config) func(rounds int) {
	t.Helper()
	cfg.Workspace = sim.NewWorkspace()
	return func(rounds int) {
		c := cfg
		c.MaxRounds = rounds
		rep, err := dynspread.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed {
			t.Fatalf("trial completed within %d rounds; the gate needs steady-state rounds", rounds)
		}
	}
}

// gate fails the test unless run's steady-state rounds allocate exactly
// zero. testing.AllocsPerRun counts PROCESS-WIDE mallocs, so unrelated
// background activity (GC bookkeeping, runtime timers) occasionally leaks
// ±1 object into the differential — visible as spurious ±0.01 readings,
// sometimes negative. A real hot-path allocation reproduces on every
// attempt (even an amortized one, like a growing map, is consistently
// non-zero), so only a persistent non-zero reading fails. Under -race the
// race runtime adds stray mallocs of its own, so the gate skips there.
func gate(t *testing.T, mode string, run func(rounds int), r1, r2 int) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race (see raceEnabled)")
	}
	var got float64
	for attempt := 0; attempt < 3; attempt++ {
		if got = perRoundAllocs(run, r1, r2); got == 0 {
			return
		}
	}
	t.Fatalf("%s steady-state round allocates %.2f objects, want 0", mode, got)
}

// TestAllocGateUnicastFloodingRound: Topkis — the unicast flooder (every
// node pushes an unsent token to every neighbor every round) — under the
// registered static adversary must run its steady-state rounds with zero
// allocations.
func TestAllocGateUnicastFloodingRound(t *testing.T) {
	gate(t, "unicast flooding", facadeRun(t, dynspread.Config{
		N: 8, K: 512,
		Algorithm: dynspread.AlgTopkis,
		Adversary: dynspread.AdvStatic,
		Seed:      7,
	}), 100, 200)
}

// TestAllocGateNoWorkspaceRound: the Topkis trial above through the
// facade's default, a Config without a Workspace. The execution then runs
// on a private workspace, so its steady-state rounds allocate nothing
// either.
func TestAllocGateNoWorkspaceRound(t *testing.T) {
	gate(t, "unicast flooding without a workspace", func(rounds int) {
		rep, err := dynspread.Run(dynspread.Config{
			N: 8, K: 512,
			Algorithm: dynspread.AlgTopkis,
			Adversary: dynspread.AdvStatic,
			Seed:      7,
			MaxRounds: rounds,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed {
			t.Fatalf("trial completed within %d rounds; the gate needs steady-state rounds", rounds)
		}
	}, 100, 200)
}

// TestAllocGateStabilityCheckedRound: the σ-edge-stability check reads the
// engine's per-round diff, so the Topkis trial above stays allocation-free
// with the check on. The facade Config carries no CheckStability, so the
// trial runs through the sweep layer.
func TestAllocGateStabilityCheckedRound(t *testing.T) {
	ws := sim.NewWorkspace()
	trial := sweep.Trial{
		N: 8, K: 512,
		Algorithm:      "topkis",
		Adversary:      "static",
		Seed:           7,
		CheckStability: 3,
	}
	gate(t, "σ-checked unicast flooding", func(rounds int) {
		tr := trial
		tr.MaxRounds = rounds
		r, err := sweep.RunTrial(tr, ws)
		if err != nil {
			t.Fatal(err)
		}
		if r.Res.Completed {
			t.Fatalf("trial completed within %d rounds; the gate needs steady-state rounds", rounds)
		}
	}, 100, 200)
}

// TestAllocGateMultiSourceRound: Multi-Source-Unicast — also the
// dissemination phase of Algorithm 2 — under the registered static
// adversary must run its steady-state rounds with zero allocations. Its
// per-node state is dense (source-indexed records, round-stamped request
// slots, reused Send buffers); the trial completes at round 442, so rounds
// 100→200 are mid-dissemination with announcements, answers and requests
// all live.
func TestAllocGateMultiSourceRound(t *testing.T) {
	gate(t, "multi-source", facadeRun(t, dynspread.Config{
		N: 8, K: 512, Sources: 4,
		Algorithm: dynspread.AlgMultiSource,
		Adversary: dynspread.AdvStatic,
		Seed:      7,
	}), 100, 200)
}

// TestAllocGateSpanningTreeRound: the static spanning-tree baseline under
// the registered static adversary — the sweep-static benchmark's shape —
// must run its steady-state rounds with zero allocations. Its per-neighbor
// state is NodeID-indexed, a round stamp marks who was sent to, and Send
// fills a reused buffer; the trial completes at round 518, so rounds
// 100→200 pipeline tokens down the finished tree. Garbage collection is
// off while the gate measures: one run's setup allocates about 1.6 MB,
// enough to start a collection in most runs, and each collection adds two
// runtime mallocs to the process-wide count, which the differential would
// otherwise read as ±0.01 objects per round.
func TestAllocGateSpanningTreeRound(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	gate(t, "spanning tree", facadeRun(t, dynspread.Config{
		N: 64, K: 512,
		Algorithm: dynspread.AlgSpanningTree,
		Adversary: dynspread.AdvStatic,
		Seed:      7,
	}), 100, 200)
}

// TestAllocGateBroadcastFloodingRound: the paper's flooding algorithm under
// the registered static adversary must run its steady-state local-broadcast
// rounds with zero allocations.
func TestAllocGateBroadcastFloodingRound(t *testing.T) {
	gate(t, "broadcast flooding", facadeRun(t, dynspread.Config{
		N: 8, K: 64, Sources: 8,
		Algorithm: dynspread.AlgFlooding,
		Adversary: dynspread.AdvStatic,
		Seed:      7,
	}), 100, 200)
}

// TestAllocGateRandomBroadcastRound: random broadcast draws from its node's
// NodeEnv.Rng every round, so this row covers the draw path: a node's
// generator is seeded at its first draw, and after that a draw allocates
// nothing. The trial completes at round 420.
func TestAllocGateRandomBroadcastRound(t *testing.T) {
	gate(t, "random broadcast", facadeRun(t, dynspread.Config{
		N: 8, K: 64, Sources: 8,
		Algorithm: dynspread.AlgRandomBroadcast,
		Adversary: dynspread.AdvStatic,
		Seed:      7,
	}), 100, 200)
}

// TestAllocGateDynamicUnicast: dynamic adversaries serve every round from
// two graphs they own, rewritten in place, and the engine diffs into
// workspace buffers and checks connectivity with the graph's own
// union-find, so Topkis under churn, rewire, regular and markovian runs its
// steady-state rounds with zero allocations too — adversary, validation
// and diff included. (Topkis sizes its Send buffer by the neighbors it has
// ever contacted, so a degree that rises late among known neighbors, as on
// markovian's sparse graphs, does not grow it.)
func TestAllocGateDynamicUnicast(t *testing.T) {
	for _, adv := range []dynspread.Adversary{dynspread.AdvChurn, dynspread.AdvRewire, dynspread.AdvRegular, dynspread.AdvMarkovian} {
		t.Run(string(adv), func(t *testing.T) {
			gate(t, "unicast flooding under "+string(adv), facadeRun(t, dynspread.Config{
				N: 8, K: 512,
				Algorithm: dynspread.AlgTopkis,
				Adversary: adv,
				Seed:      7,
			}), 100, 200)
		})
	}
}

// TestAllocGateDynamicBroadcastChurn: the paper's flooding algorithm under
// the churn adversary runs its steady-state local-broadcast rounds with
// zero allocations.
func TestAllocGateDynamicBroadcastChurn(t *testing.T) {
	gate(t, "broadcast flooding under churn", facadeRun(t, dynspread.Config{
		N: 8, K: 64, Sources: 8,
		Algorithm: dynspread.AlgFlooding,
		Adversary: dynspread.AdvChurn,
		Seed:      7,
	}), 100, 200)
}

// --- ns/round regression gates ---
//
// The speed analogue of the allocation gates, in two layers. Both express
// time as a RATIO against an in-process reference workload (a fixed
// memory+ALU sweep independent of the packages under test), so machine speed
// cancels and CI boxes of different generations apply the same bound; the
// baseline is re-measured inside every attempt so a load spike slows both
// sides of the ratio instead of just one.
//
//   - The ENGINE gate bounds the steady-state per-round time of a Topkis
//     trial, timed inside one run from a flight-recorder sample whose
//     window is rounds 201–400, so setup is outside it. It catches
//     regressions anywhere on the round hot path — kernels, delivery sort,
//     message copies.
//   - The KERNEL gate bounds one fixed batch of the knowledge-set kernels
//     those rounds lean on (FirstNotIn and FirstNotInFrom, UnionCount,
//     ForEach, fused Insert/Delete probes, across sparse and dense
//     representations). The batch is ~100% kernel work, so a 2× kernel
//     slowdown doubles its ratio — this is the bound the
//     deliberate-slowdown check trips.
//
// Calibration (2026-08, on a loaded shared VM): over repeated runs the
// kernel-batch ratio measures 0.84–1.06. With the cursor scans added to the
// batch (2026-10, 2-vCPU host, 15 isolated runs) it read 0.66–1.03
// (median 0.74), against 0.86–1.01 (median 0.89) for the batch without
// them, on the code before the cursor, in runs alternating with those. A deliberate 2× slowdown of every
// kernel the batch exercises (verified once locally) pushes the kernel
// ratio to 1.80–1.85 — past the bound on every attempt — while the engine
// ratio moves to 0.07–0.10 (kernels are about half the round, and the
// engine bound deliberately carries headroom for the non-kernel half).
// Timed inside one run (2026-10, 2-vCPU host), the engine gate (N=64
// K=2048 Topkis static, rounds 201–400) read 0.033–0.054 (median 0.042) as
// the best of three attempts over 70 isolated runs. With a busy wait that
// doubles every round, 70 isolated runs read 0.066–0.110 (median 0.083),
// so only a bound near 0.065 fails every doubled round. But beside parallel
// package tests, as under `go test ./...`, unchanged code read up to 0.098
// (1 of 16 runs; 0.065–0.078 in 7 more): a bound of 0.065 or 0.08 fails
// such runs, and one that passes them catches a doubled round rarely. The
// bound therefore stays at 0.12 until the window is measured so that load
// from other processes does not reach it. Since Topkis starts its scans at
// a per-neighbor cursor and the engine copies each message once, 15
// isolated runs read 0.023–0.050 (median 0.034), against 0.049–0.058
// (median 0.051) for the code before that change in runs alternating with
// those.
const (
	nsPerRoundMaxRatio  = 0.12
	kernelBatchMaxRatio = 1.6
)

// baselineUnitNanos times the reference workload: 64 rotate-xor-sum passes
// over a 64 KiB block, the machine-speed unit the round time is divided by.
func baselineUnitNanos() float64 {
	buf := make([]uint64, 1<<13)
	for i := range buf {
		buf[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	var acc uint64
	best := time.Duration(1<<63 - 1)
	for attempt := 0; attempt < 5; attempt++ {
		start := time.Now()
		for pass := 0; pass < 64; pass++ {
			for _, w := range buf {
				acc += bits.RotateLeft64(w, 13) ^ (w >> 7)
			}
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	baselineSink = acc
	return float64(best.Nanoseconds())
}

var baselineSink uint64

// nsPerRound returns the steady-state per-round time of cfg between rounds
// r1 and r2, in nanoseconds, timed inside one run: a recorder at stride
// r2−r1 samples rounds r1 and r2, so the round-r2 sample's Nanos window
// holds exactly rounds r1+1..r2, and setup and the rounds before r1 fall
// outside it. A warm-up run first sizes the workspace (including
// sparse→dense promotion storage). A reading that is not positive measured
// nothing, so it fails the test.
func nsPerRound(t *testing.T, cfg dynspread.Config, r1, r2 int) float64 {
	t.Helper()
	if r1%(r2-r1) != 0 {
		t.Fatalf("round %d is not a sample round at stride %d", r1, r2-r1)
	}
	cfg.Workspace = sim.NewWorkspace()
	cfg.Recorder = sim.NewRecorder(sim.RecorderConfig{Stride: r2 - r1})
	cfg.MaxRounds = r2
	var last sim.RoundSample
	for range 2 {
		rep, err := dynspread.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed {
			t.Fatalf("trial completed within %d rounds; the gate needs steady-state rounds", r2)
		}
		samples := cfg.Recorder.Snapshot().Samples
		last = samples[len(samples)-1]
	}
	if last.Round != r2 || last.Nanos <= 0 {
		t.Fatalf("rounds %d→%d read %d ns at round %d; want a positive reading at round %d", r1, r2, last.Nanos, last.Round, r2)
	}
	return float64(last.Nanos) / float64(r2-r1)
}

// ratioGate runs measure (which must return a time-per-unit-of-work in
// nanoseconds) up to attempts times, re-measuring the baseline each attempt,
// and fails unless some attempt's ratio lands under bound. Taking the min
// over attempts means a load spike has to hit every attempt to produce a
// false failure.
func ratioGate(t *testing.T, what string, bound float64, measure func() float64) {
	t.Helper()
	bestRatio := 1e18
	for attempt := 0; attempt < 3; attempt++ {
		ratio := measure() / baselineUnitNanos()
		if ratio < bestRatio {
			bestRatio = ratio
		}
		if bestRatio <= bound {
			t.Logf("%s ratio %.3f (bound %.3f)", what, bestRatio, bound)
			return
		}
	}
	t.Fatalf("%s costs %.3f baseline units, want <= %.3f — hot-path regression", what, bestRatio, bound)
}

// TestNsPerRoundGateUnicast bounds the steady-state per-round time of the
// message-heavy Topkis trial: its K=2048 rounds go mostly to the unicast
// exchange (each message validated where Send left it, the counting sort's
// one copy, fused Insert deliveries), with Topkis's Send and its
// cursor-started FirstNotIn scans and the O(1) completion scan making up
// the rest.
func TestNsPerRoundGateUnicast(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	cfg := dynspread.Config{
		N: 64, K: 2048,
		Algorithm: dynspread.AlgTopkis,
		Adversary: dynspread.AdvStatic,
		Seed:      7,
	}
	ratioGate(t, "steady-state round", nsPerRoundMaxRatio, func() float64 {
		return nsPerRound(t, cfg, 200, 400)
	})
}

// kernelBatchNanos times one fixed batch of the knowledge-set kernels a
// steady Topkis round leans on, across both representations: a sparse
// adaptive set (100/4096 elements) and a promoted dense one (2000/4096).
// The sent-sets hold a PREFIX of each know-set's elements, up to element
// n/2. The deep FirstNotIn scans sweep past that whole prefix; the
// FirstNotInFrom scans start at its end, as Topkis's per-neighbor cursor
// does. Repetition counts per kernel are chosen so no single kernel
// dominates the batch; the batch mutates nothing net, so repeated calls
// measure identical work.
func kernelBatchNanos(t *testing.T) float64 {
	t.Helper()
	const n = 4096
	mk := func(count int) (*adaptive.Set, *bitset.Set) {
		know := adaptive.New(n)
		sent := bitset.New(n)
		for i := 0; i < count; i++ {
			e := i * n / count
			know.Insert(e)
			if i < count/2 {
				sent.Add(e)
			}
		}
		return know, sent
	}
	spKnow, spSent := mk(100)
	dnKnow, dnSent := mk(2000)
	if spKnow.Promotions() != 0 || dnKnow.Promotions() != 1 {
		t.Fatal("kernel batch setup landed on the wrong representations")
	}
	other := bitset.New(n)
	for i := 0; i < n; i += 3 {
		other.Add(i)
	}
	sink := 0
	batch := func() {
		for rep := 0; rep < 16; rep++ {
			// Deep scans: 50 sparse Contains-probes / ~16 dense words each.
			for i := 0; i < 32; i++ {
				sink += spKnow.FirstNotIn(spSent)
				sink += dnKnow.FirstNotIn(dnSent)
			}
			// Cursor scans from the prefix's end: a binary search / one
			// word each.
			for i := 0; i < 32; i++ {
				sink += spKnow.FirstNotInFrom(spSent, n/2)
				sink += dnKnow.FirstNotInFrom(dnSent, n/2)
			}
			// Word-batched popcount unions over all 64 words each.
			for i := 0; i < 16; i++ {
				sink += spKnow.UnionCount(other)
				sink += dnKnow.UnionCount(other)
			}
			// Membership churn: fused probe pairs across the universe.
			for i := 0; i < 64; i++ {
				probe := 1 + i*61%n
				if spKnow.Insert(probe) {
					spKnow.Delete(probe)
				}
				if dnKnow.Insert(probe) {
					dnKnow.Delete(probe)
				}
			}
			// Element sweeps (delivery/iteration shape).
			spKnow.ForEach(func(e int) { sink += e })
			dnKnow.ForEach(func(e int) { sink += e })
		}
	}
	batch() // warm caches
	best := time.Duration(1<<63 - 1)
	for attempt := 0; attempt < 5; attempt++ {
		start := time.Now()
		batch()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if sink == 42 {
		t.Log("unreachable, defeats dead-code elimination")
	}
	return float64(best.Nanoseconds())
}

// TestKernelBatchGate bounds the knowledge-set kernels directly: the batch
// is ~100% kernel work, so (unlike the engine-level gate, where kernels are
// about half the round) a 2× kernel slowdown doubles this ratio and fails
// the test with margin to spare. This is the bound the deliberate-slowdown
// verification trips.
func TestKernelBatchGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	ratioGate(t, "kernel batch", kernelBatchMaxRatio, func() float64 {
		return kernelBatchNanos(t)
	})
}
