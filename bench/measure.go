package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// sizes is how much work one run of a workload does. Workloads scale with
// --seconds through sizesFor; the constants there were calibrated on a
// 2-core x86-64 container so that a run measures for about that long.
type sizes struct {
	setups int // set-up repetitions; setup_s is their median

	// sweep-dynamic, sweep-static
	passes int // passes over the trial list; throughput is their median
	seeds  int // trial seeds per pass, one cell of trials each

	// service-open
	phase      time.Duration // length of the open-loop and closed-loop phases
	rate       float64       // reference open-loop rate, requests/s
	ladderStep time.Duration // length of one max-rate ladder step (traced runs)

	// cluster-store
	reps  int // repetitions, each on a fresh store
	specs int // specs dispatched per repetition
	warm  int // warm re-runs per repetition; warm time is their median
}

// Calibration: cells a sweep pass holds, and cluster repetitions, per
// second of --seconds.
const (
	dynamicSeedsPerSecond = 0.5
	staticSeedsPerSecond  = 1.9
	clusterRepsPerSecond  = 0.75
)

func sizesFor(workload string, seconds float64) sizes {
	atLeast := func(n int, v float64) int { return max(n, int(math.Round(v))) }
	sz := sizes{setups: 5, passes: 6, rate: 200, specs: 1024, warm: 10}
	switch workload {
	case "sweep-dynamic":
		sz.seeds = atLeast(1, seconds*dynamicSeedsPerSecond)
	case "sweep-static":
		sz.seeds = atLeast(1, seconds*staticSeedsPerSecond)
	case "service-open":
		sz.phase = time.Duration(seconds / 2 * float64(time.Second))
		sz.ladderStep = time.Duration(seconds / 24 * float64(time.Second))
	case "cluster-store":
		sz.reps = atLeast(2, seconds*clusterRepsPerSecond)
	}
	return sz
}

// heapSampler samples the live heap — the heap the last garbage collection
// found reachable — every 10 ms. Unlike the size of all heap objects it
// does not depend on where in the collection cycle a sample falls.
type heapSampler struct {
	stop, done chan struct{}
	samples    []float64 // MiB
}

// startHeap collects garbage, so sampling starts from live data only, and
// starts sampling.
func startHeap() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		h.samples = append(h.samples, float64(sample[0].Value.Uint64())/(1<<20))
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// liveMB stops the sampler and returns the 90th percentile of its samples:
// the heap the workload keeps live, without the rare collection that
// happened to run at its single largest moment.
func (h *heapSampler) liveMB() float64 {
	close(h.stop)
	<-h.done
	return percentile(slices.Sorted(slices.Values(h.samples)), 90)
}

// cpuClock is the runtime's estimate of CPU time spent in garbage
// collection and in total.
type cpuClock struct{ gc, total float64 }

func readCPU() cpuClock {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClock{s[0].Value.Float64(), s[1].Value.Float64()}
}

// gcShareSince returns the share of CPU time spent in GC since c.
func (c cpuClock) gcShareSince() float64 {
	now := readCPU()
	return (now.gc - c.gc) / (now.total - c.total)
}

// allocClock counts heap allocations.
type allocClock struct {
	at            time.Time
	allocs, bytes uint64
}

func readAllocs() allocClock {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocClock{time.Now(), m.Mallocs, m.TotalAlloc}
}

// per returns the time, allocations and bytes since c, each divided by n.
func (c allocClock) per(n int) (ns, allocs, bytes float64) {
	now := readAllocs()
	f := float64(n)
	return float64(now.at.Sub(c.at).Nanoseconds()) / f, float64(now.allocs-c.allocs) / f, float64(now.bytes-c.bytes) / f
}
