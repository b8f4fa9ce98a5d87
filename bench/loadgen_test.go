package main

import (
	"testing"
	"time"
)

// TestOpenLoopChargesStalls checks that latency runs from the due time: a
// request queued behind a slow one is charged the wait, while the
// generator itself stays on schedule.
func TestOpenLoopChargesStalls(t *testing.T) {
	const stall = 30 * time.Millisecond
	samples := openLoop(1000, 10, 1, time.Minute, func(i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	for i, s := range samples {
		if !s.sent || !s.ok {
			t.Fatalf("request %d not served: %+v", i, s)
		}
	}
	// Request 1 was due 1 ms in but could not start until request 0
	// finished, so its latency covers most of the stall.
	if got := samples[1].latency(); got < stall-2*time.Millisecond {
		t.Errorf("request 1 latency %v, want at least %v", got, stall-2*time.Millisecond)
	}
	if got := samples[1].late(); got > stall/2 {
		t.Errorf("dispatcher released request 1 %v late; the stall belongs to the sender", got)
	}
}

// TestOpenLoopAbandonsAfterDeadline checks that requests no sender started
// by the deadline are left unsent.
func TestOpenLoopAbandonsAfterDeadline(t *testing.T) {
	samples := openLoop(1000, 5, 1, 10*time.Millisecond, func(int) bool {
		time.Sleep(20 * time.Millisecond)
		return true
	})
	if !samples[0].sent || samples[4].sent {
		t.Errorf("sent = %v…%v, want the first sent and the last abandoned", samples[0].sent, samples[4].sent)
	}
}

// TestSummarizeOpen pins the lateness and backlog accounting.
func TestSummarizeOpen(t *testing.T) {
	const end = 2 * time.Second
	samples := []openSample{
		{due: 0, released: time.Millisecond, done: 5 * time.Millisecond, sent: true, ok: true},
		{due: time.Second, released: time.Second + 7*time.Millisecond, done: time.Second + 10*time.Millisecond, sent: true, ok: false},
		{due: 1900 * time.Millisecond, released: 1900 * time.Millisecond, done: end + 1500*time.Millisecond, sent: true, ok: true},
		{due: 1950 * time.Millisecond, released: 1950 * time.Millisecond},
	}
	st := summarizeOpen(samples, end)
	if st.maxLate != 7*time.Millisecond {
		t.Errorf("maxLate = %v, want 7ms", st.maxLate)
	}
	if st.failed != 1 {
		t.Errorf("failed = %d, want 1", st.failed)
	}
	// One finished more than a second after the schedule, one never sent.
	if st.backlog != 2 {
		t.Errorf("backlog = %d, want 2", st.backlog)
	}
	want := []float64{5, 10, 1600}
	if len(st.latencies) != len(want) {
		t.Fatalf("latencies = %v, want %v", st.latencies, want)
	}
	for i := range want {
		if st.latencies[i] != want[i] {
			t.Errorf("latencies = %v, want %v", st.latencies, want)
		}
	}
}

// TestMaxRate pins the max-rate rule: the ladder stops at the first step
// that misses the latency limit, fails a request or leaves a backlog.
func TestMaxRate(t *testing.T) {
	ok := func(rate float64) ladderStep { return ladderStep{rate: rate, p99: 10} }
	for _, tc := range []struct {
		name  string
		steps []ladderStep
		want  float64
	}{
		{"all pass", []ladderStep{ok(200), ok(300), ok(450)}, 450},
		{"slow step", []ladderStep{ok(200), ok(300), {rate: 450, p99: 30}, ok(675)}, 300},
		{"failed request", []ladderStep{ok(200), {rate: 300, p99: 5, failed: 1}}, 200},
		{"backlog", []ladderStep{ok(200), {rate: 300, p99: 5, backlog: 3}}, 200},
		{"first step misses", []ladderStep{{rate: 200, p99: 26}}, 0},
	} {
		if got := maxRate(tc.steps, 25); got != tc.want {
			t.Errorf("%s: maxRate = %g, want %g", tc.name, got, tc.want)
		}
	}
}
