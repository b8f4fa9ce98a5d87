package sim

import (
	"testing"

	"dynspread/internal/graph"
)

// runRecorded executes the standard 8-node path push run with rec attached
// and returns the result.
func runRecorded(t *testing.T, rec *Recorder, n, k int) *Result {
	t.Helper()
	res, err := RunUnicast(UnicastConfig{
		Assign:    singleSource(t, n, k, 0),
		Factory:   newPushProto,
		Adversary: staticAdv{graph.Path(n)},
		Seed:      1,
		Recorder:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	return res
}

// checkSampleSums verifies the window-delta contract: the deltas of a
// complete (nothing-dropped) series must sum back to the run's totals.
func checkSampleSums(t *testing.T, snap RecorderSnapshot, res *Result, n, k int) {
	t.Helper()
	var messages, learned, arrived int64
	for _, s := range snap.Samples {
		messages += s.Messages
		learned += s.Learned
		arrived += s.Arrived
	}
	if messages != res.Metrics.Messages {
		t.Errorf("Σ Messages = %d, want %d", messages, res.Metrics.Messages)
	}
	if learned != res.Metrics.Learnings {
		t.Errorf("Σ Learned = %d, want %d", learned, res.Metrics.Learnings)
	}
	last := snap.Samples[len(snap.Samples)-1]
	if last.Round != res.Rounds {
		t.Errorf("final sample round = %d, want %d", last.Round, res.Rounds)
	}
	if last.Known != int64(n)*int64(k) {
		t.Errorf("final Known = %d, want n·k = %d", last.Known, n*k)
	}
}

func TestRecorderEveryRound(t *testing.T) {
	const n, k = 8, 5
	rec := NewRecorder(RecorderConfig{Stride: 1, Capacity: 128})
	res := runRecorded(t, rec, n, k)
	snap := rec.Snapshot()
	if snap.Stride != 1 || snap.Capacity != 128 || snap.Dropped != 0 {
		t.Fatalf("snapshot header %+v", snap)
	}
	if len(snap.Samples) != res.Rounds {
		t.Fatalf("samples = %d, want one per round (%d)", len(snap.Samples), res.Rounds)
	}
	prevKnown := int64(0)
	for i, s := range snap.Samples {
		if s.Round != i+1 {
			t.Fatalf("sample %d records round %d", i, s.Round)
		}
		if s.Known < prevKnown {
			t.Fatalf("Known regressed at round %d: %d < %d", s.Round, s.Known, prevKnown)
		}
		prevKnown = s.Known
	}
	checkSampleSums(t, snap, res, n, k)
}

// TestRecorderStrideFinalRound: with a stride the sampled rounds are the
// stride multiples PLUS the final round, and the window deltas still sum to
// the run totals (the last window just aggregates the tail).
func TestRecorderStride(t *testing.T) {
	const n, k = 8, 5
	rec := NewRecorder(RecorderConfig{Stride: 4, Capacity: 128})
	res := runRecorded(t, rec, n, k)
	snap := rec.Snapshot()
	want := res.Rounds/4 + 1
	if res.Rounds%4 == 0 {
		want = res.Rounds / 4 // exact multiple: finish must NOT double-sample
	}
	if len(snap.Samples) != want {
		t.Fatalf("samples = %d, want %d for %d rounds at stride 4", len(snap.Samples), want, res.Rounds)
	}
	for i, s := range snap.Samples {
		final := i == len(snap.Samples)-1
		if !final && s.Round != (i+1)*4 {
			t.Fatalf("sample %d records round %d, want %d", i, s.Round, (i+1)*4)
		}
		if final && s.Round != res.Rounds {
			t.Fatalf("final sample records round %d, want %d", s.Round, res.Rounds)
		}
	}
	checkSampleSums(t, snap, res, n, k)
}

// TestRecorderStrideBeyondRounds: a stride longer than the whole execution
// still yields exactly one sample — the final round, captured by finish —
// whose window covers the entire run.
func TestRecorderStrideBeyondRounds(t *testing.T) {
	const n, k = 8, 5
	rec := NewRecorder(RecorderConfig{Stride: 100000, Capacity: 16})
	res := runRecorded(t, rec, n, k)
	snap := rec.Snapshot()
	if len(snap.Samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(snap.Samples))
	}
	checkSampleSums(t, snap, res, n, k)
}

// TestRecorderCapacityOne: a one-slot ring retains only the final sample and
// reports everything older as dropped.
func TestRecorderCapacityOne(t *testing.T) {
	const n, k = 8, 5
	rec := NewRecorder(RecorderConfig{Stride: 1, Capacity: 1})
	res := runRecorded(t, rec, n, k)
	snap := rec.Snapshot()
	if len(snap.Samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(snap.Samples))
	}
	if snap.Dropped != int64(res.Rounds)-1 {
		t.Fatalf("Dropped = %d, want %d", snap.Dropped, res.Rounds-1)
	}
	s := snap.Samples[0]
	if s.Round != res.Rounds {
		t.Fatalf("retained round = %d, want final %d", s.Round, res.Rounds)
	}
	if s.Known != int64(n*k) {
		t.Fatalf("Known = %d, want %d", s.Known, n*k)
	}
}

// TestRecorderWraparound: a ring smaller than the sample count keeps the
// most recent capacity samples in chronological order.
func TestRecorderWraparound(t *testing.T) {
	const n, k, capacity = 8, 5, 3
	rec := NewRecorder(RecorderConfig{Stride: 1, Capacity: capacity})
	res := runRecorded(t, rec, n, k)
	if res.Rounds <= capacity {
		t.Fatalf("run too short (%d rounds) to exercise wraparound", res.Rounds)
	}
	snap := rec.Snapshot()
	if len(snap.Samples) != capacity {
		t.Fatalf("samples = %d, want %d", len(snap.Samples), capacity)
	}
	if snap.Dropped != int64(res.Rounds-capacity) {
		t.Fatalf("Dropped = %d, want %d", snap.Dropped, res.Rounds-capacity)
	}
	for i, s := range snap.Samples {
		if want := res.Rounds - capacity + 1 + i; s.Round != want {
			t.Fatalf("sample %d records round %d, want %d", i, s.Round, want)
		}
	}
}

// TestRecorderReuse: the engine resets an attached recorder per execution,
// so one recorder serves sequential runs without leaking samples between
// them (the Workspace contract).
func TestRecorderReuse(t *testing.T) {
	const n, k = 8, 5
	rec := NewRecorder(RecorderConfig{Stride: 1, Capacity: 128})
	runRecorded(t, rec, n, k)
	first := rec.Snapshot()
	res := runRecorded(t, rec, n, k)
	second := rec.Snapshot()
	if len(second.Samples) != res.Rounds || second.Dropped != 0 {
		t.Fatalf("second run: %d samples, %d dropped — first run leaked through",
			len(second.Samples), second.Dropped)
	}
	if len(first.Samples) != len(second.Samples) {
		t.Fatalf("identical runs recorded %d then %d samples", len(first.Samples), len(second.Samples))
	}
	// Deterministic engine: everything but wall time must be bit-identical.
	for i := range first.Samples {
		a, b := first.Samples[i], second.Samples[i]
		a.Nanos, b.Nanos = 0, 0
		if a != b {
			t.Fatalf("sample %d differs across identical runs: %+v vs %+v", i, a, b)
		}
	}
}

// TestRecorderBroadcast: the broadcast half of the engine feeds the same
// recorder hooks.
func TestRecorderBroadcast(t *testing.T) {
	const n, k = 6, 6
	rec := NewRecorder(RecorderConfig{Stride: 1, Capacity: 128})
	res, err := RunBroadcast(BroadcastConfig{
		Assign:    gossip(t, n),
		Factory:   newFloodB,
		Adversary: staticAdv{graph.Cycle(n)},
		Seed:      3,
		Recorder:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	snap := rec.Snapshot()
	if len(snap.Samples) != res.Rounds {
		t.Fatalf("samples = %d, want %d", len(snap.Samples), res.Rounds)
	}
	var broadcasts int64
	for _, s := range snap.Samples {
		broadcasts += s.Broadcasts
	}
	if broadcasts != res.Metrics.Broadcasts {
		t.Fatalf("Σ Broadcasts = %d, want %d", broadcasts, res.Metrics.Broadcasts)
	}
	if last := snap.Samples[len(snap.Samples)-1]; last.Known != int64(n*k) {
		t.Fatalf("final Known = %d, want %d", last.Known, n*k)
	}
}
