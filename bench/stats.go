package main

import (
	"math"
	"slices"
	"time"
)

// tailLadder lists the percentiles the tail rule chooses from, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a percentile before the
// tail rule will report it: with fewer, one outlier moves the value.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps p·n/100 that is whole in exact arithmetic, like
// 99.9·20000/100, from rounding up in floating point.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[min(max(rank(p, len(sorted)), 1), len(sorted))-1]
}

// tail applies the tail rule to sorted samples: it returns the highest
// ladder percentile that has at least minBeyond samples above its rank, and
// that percentile's value. With too few samples for any rung it falls back
// to the median.
func tail(sorted []float64) (pct, value float64) {
	n := len(sorted)
	for _, p := range tailLadder {
		if r := rank(p, n); r >= 1 && n-r >= minBeyond {
			return p, sorted[r-1]
		}
	}
	return 50, percentile(sorted, 50)
}

// latencySummary is the median and tail of a set of latencies in ms.
type latencySummary struct {
	n            int
	p50, tailPct float64
	tail         float64
}

func summarize(ms []float64) latencySummary {
	s := slices.Clone(ms)
	slices.Sort(s)
	pct, v := tail(s)
	return latencySummary{n: len(s), p50: percentile(s, 50), tailPct: pct, tail: v}
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), like Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones computed from the JSON
// lines by that function. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		v := math.NaN()
		if ld == 1 {
			v = s[0]
		}
		return v, v, v
	}
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out[0], out[1], out[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
