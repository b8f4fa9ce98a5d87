package dynspread_test

// The flight recorder's admission ticket to the round hot path: with a
// recorder ATTACHED the steady-state rounds must still allocate exactly
// zero, and the per-round time at the documented operational stride must
// stay within 10% of a recorder-free run. Both reuse the differential
// machinery of alloc_gate_test.go — the recorder's constant-count
// bookkeeping (one ring at construction, a fixed snapshot copy per run)
// cancels between the r1 and r2 executions, so any per-round residue is a
// real per-sample allocation.

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"dynspread"
	"dynspread/internal/graph"
	"dynspread/internal/sim"
	"dynspread/internal/sweep"
)

// recorded returns cfg with a fresh recorder attached at the given stride.
// Capacity stays at the default ring size so the gate also covers the
// wraparound path (stride 1 over 200 rounds wraps a smaller ring; the
// default 1024 ring exercises the no-wrap path — both must be free).
func recorded(cfg dynspread.Config, stride int) dynspread.Config {
	cfg.Recorder = sim.NewRecorder(sim.RecorderConfig{Stride: stride})
	return cfg
}

var (
	gateUnicastCfg = dynspread.Config{
		N: 8, K: 512,
		Algorithm: dynspread.AlgTopkis,
		Adversary: dynspread.AdvStatic,
		Seed:      7,
	}
	gateBroadcastCfg = dynspread.Config{
		N: 8, K: 64, Sources: 8,
		Algorithm: dynspread.AlgFlooding,
		Adversary: dynspread.AdvStatic,
		Seed:      7,
	}
)

// TestAllocGateRecorderStride1: the worst case — a sample taken EVERY round
// — allocates nothing per steady-state round, in both engine modes.
func TestAllocGateRecorderStride1(t *testing.T) {
	gate(t, "unicast recorded stride 1", facadeRun(t, recorded(gateUnicastCfg, 1)), 100, 200)
	gate(t, "broadcast recorded stride 1", facadeRun(t, recorded(gateBroadcastCfg, 1)), 100, 200)
}

// TestAllocGateRecorderStride64: the documented operational stride. Most
// rounds only advance the recorder's counters; every 64th writes one ring
// slot in place.
func TestAllocGateRecorderStride64(t *testing.T) {
	gate(t, "unicast recorded stride 64", facadeRun(t, recorded(gateUnicastCfg, 64)), 100, 200)
	gate(t, "broadcast recorded stride 64", facadeRun(t, recorded(gateBroadcastCfg, 64)), 100, 200)
}

// recorderOverheadMaxRatio bounds the recorded/unrecorded steady-state
// per-round time ratio at the operational stride. The recorder's per-round
// work is a handful of counter additions, so the true ratio is about 1, and
// 1.10 leaves noise headroom while still catching any accidental per-round
// sampling or snapshotting.
const recorderOverheadMaxRatio = 1.10

// Each of the gate's recorderGateRuns lockstep runs times
// recorderGatePairs slices of recorderGateSlice rounds each, starting after
// round recorderGateFrom. A slice of 64 rounds holds exactly one sample at
// stride 64. The slices end at round 1984, before the trial completes at
// round 2052, and the 81 pairs are odd in number, so the median is one
// pair's ratio.
const (
	recorderGateRuns  = 3
	recorderGatePairs = 27
	recorderGateSlice = 64
	recorderGateFrom  = 256
)

// TestRecorderOverheadGate: attaching a recorder at stride 64 may not slow
// the steady-state round by more than 10%. It runs the K=2048 Topkis trial
// twice, recorder off and on, in lockstep: one slice of rounds on one side,
// then the same slice on the other, which side first alternating from pair
// to pair. Both sides run the same rounds within a few milliseconds of each
// other, so the host's speed, which drifts by tens of percent over a
// fraction of a second on a shared machine, is about the same for both
// halves of a pair. The gate reads the median of the per-pair ratios,
// which the few pairs a load spike hits cannot move past the bound.
func TestRecorderOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	recs := [2]*sim.Recorder{nil, sim.NewRecorder(sim.RecorderConfig{Stride: 64})}
	var ratios []float64
	for range recorderGateRuns {
		spent := lockstepSlices(t, recs)
		for j := range spent[0] {
			ratios = append(ratios, float64(spent[1][j])/float64(spent[0][j]))
		}
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if median > recorderOverheadMaxRatio {
		t.Fatalf("recorder at stride 64 costs %.3f× the unrecorded round (median of %d pairs; quartiles %.3f and %.3f), want <= %.2f",
			median, len(ratios), ratios[len(ratios)/4], ratios[3*len(ratios)/4], recorderOverheadMaxRatio)
	}
	t.Logf("recorder overhead ratio %.3f, median of %d pairs (quartiles %.3f and %.3f; bound %.2f)",
		median, len(ratios), ratios[len(ratios)/4], ratios[3*len(ratios)/4], recorderOverheadMaxRatio)
}

// lockstepSlices runs the N=64 K=2048 Topkis trial under the static
// adversary once per recorder (nil for none), each on its own workspace and
// goroutine, and returns each side's wall time for every gate slice. Only
// one side runs at a time: each hands control back to the test goroutine at
// every slice boundary, and the test goroutine resumes the sides in turn,
// alternating which goes first. Setup and the rounds before
// recorderGateFrom run untimed.
func lockstepSlices(t *testing.T, recs [2]*sim.Recorder) [2][]time.Duration {
	t.Helper()
	last := recorderGateFrom + recorderGatePairs*recorderGateSlice
	var spent [2][]time.Duration
	var resume, yield [2]chan struct{}
	var done [2]chan error
	for i := range recs {
		resume[i], yield[i], done[i] = make(chan struct{}), make(chan struct{}), make(chan error, 1)
		go func() {
			<-resume[i]
			r := 0
			var start time.Time
			trial := sweep.Trial{
				N: 64, K: 2048,
				Algorithm: "topkis",
				Adversary: "static",
				Seed:      7,
				MaxRounds: last,
				OnDelta: func(graph.Diff) {
					if r++; r < recorderGateFrom || (r-recorderGateFrom)%recorderGateSlice != 0 {
						return
					}
					if r > recorderGateFrom {
						spent[i] = append(spent[i], time.Since(start))
					}
					if r < last {
						yield[i] <- struct{}{}
						<-resume[i]
					}
					start = time.Now()
				},
			}
			res, err := sweep.RunTrialRecorded(trial, sim.NewWorkspace(), recs[i])
			if err == nil && res.Res.Completed {
				err = fmt.Errorf("trial completed within %d rounds; the gate needs steady-state rounds", last)
			}
			done[i] <- err
		}()
	}
	var errs []error
	running := [2]bool{true, true}
	for turn := 0; running[0] || running[1]; turn++ {
		for _, i := range [2]int{turn % 2, 1 - turn%2} {
			if !running[i] {
				continue
			}
			resume[i] <- struct{}{}
			select {
			case <-yield[i]:
			case err := <-done[i]:
				running[i] = false
				if err != nil {
					errs = append(errs, err)
				}
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i := range spent {
		if len(spent[i]) != recorderGatePairs {
			t.Fatalf("side %d timed %d slices, want %d", i, len(spent[i]), recorderGatePairs)
		}
	}
	return spent
}
