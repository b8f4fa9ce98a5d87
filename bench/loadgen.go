package main

import (
	"sync"
	"time"
)

// openSample is the outcome of one open-loop request. Times are offsets
// from the start of the loop.
type openSample struct {
	due      time.Duration // when the schedule says the request is sent
	released time.Duration // when the dispatcher released it
	done     time.Duration // when its response completed
	sent     bool          // a sender started it before the deadline
	ok       bool          // it completed without error
}

// latency is the request's time from its due time to its response: it
// includes any wait for a free sender, so a stall is charged to every
// request it delays.
func (s openSample) latency() time.Duration { return s.done - s.due }

// late is how far behind schedule the generator itself released it.
func (s openSample) late() time.Duration { return s.released - s.due }

// openLoop sends n requests at rate per second: request i is due at
// i/rate. One dispatcher releases each request at its due time to a fixed
// set of senders, independent of how fast earlier requests complete.
// Requests no sender has started by deadline are abandoned.
func openLoop(rate float64, n, senders int, deadline time.Duration, do func(i int) bool) []openSample {
	samples := make([]openSample, n)
	period := float64(time.Second) / rate
	// Buffered to the number of sends, so the dispatcher never blocks.
	queue := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if time.Since(start) > deadline {
					continue
				}
				samples[i].sent = true
				samples[i].ok = do(i)
				samples[i].done = time.Since(start)
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) * period)
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		samples[i].due = due
		samples[i].released = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// loadStats summarizes an open-loop run.
type loadStats struct {
	latencies []float64 // ms, of requests sent
	failed    int       // requests that errored
	backlog   int       // requests unfinished 1 s after the schedule ended
	maxLate   time.Duration
}

func summarizeOpen(samples []openSample, scheduleEnd time.Duration) loadStats {
	var st loadStats
	for _, s := range samples {
		st.maxLate = max(st.maxLate, s.late())
		if !s.sent || s.done > scheduleEnd+time.Second {
			st.backlog++
		}
		if !s.sent {
			continue
		}
		if !s.ok {
			st.failed++
		}
		st.latencies = append(st.latencies, ms(s.latency()))
	}
	return st
}

// ladderStep is one rate of the max-rate ladder.
type ladderStep struct {
	rate    float64
	p99     float64 // ms
	failed  int
	backlog int
}

// meets reports whether a step sustained its rate: p99 latency within
// limitMs, nothing failed, and no backlog.
func (s ladderStep) meets(limitMs float64) bool {
	return s.p99 <= limitMs && s.failed == 0 && s.backlog == 0
}

// maxRate returns the highest rate of an ascending ladder up to which every
// step meets the limit, or 0 when the first step does not.
func maxRate(steps []ladderStep, limitMs float64) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.meets(limitMs) {
			break
		}
		best = s.rate
	}
	return best
}

// closedLoop runs senders clients that each send their next request as soon
// as the previous one completes, until dur has passed, and returns the
// requests completed per second in each whole window of that time. A
// median over windows discounts a stall that hits only one of them.
func closedLoop(senders int, dur, window time.Duration, do func() bool) []float64 {
	var mu sync.Mutex
	var done []time.Duration // completion offsets of successful requests
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				if do() {
					t := time.Since(start)
					mu.Lock()
					done = append(done, t)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return windowRates(done, dur, window)
}

// windowRates counts events per whole window of [0, dur) and returns each
// window's rate per second. A dur shorter than one window is one window.
func windowRates(events []time.Duration, dur, window time.Duration) []float64 {
	window = min(window, dur)
	counts := make([]float64, max(1, int(dur/window)))
	for _, t := range events {
		if w := int(t / window); w < len(counts) {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= window.Seconds()
	}
	return counts
}
