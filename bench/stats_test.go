package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestTailRule pins the tail rule: the highest ladder percentile with at
// least ten samples beyond it, falling back to the median.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{20000, 99.9, 19980},
		{2000, 99, 1980},
		{1000, 99, 990}, // exactly ten beyond
		{999, 95, 950},  // p99 would leave nine
		{100, 90, 90},
		{40, 75, 30},
		{20, 50, 10},
		{15, 50, 8}, // too few for any rung: the median
	} {
		pct, v := tail(ramp(tc.n))
		if pct != tc.pct || v != tc.want {
			t.Errorf("n=%d: tail = p%g %g, want p%g %g", tc.n, pct, v, tc.pct, tc.want)
		}
	}
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.n != 5 || s.p50 != 3 {
		t.Errorf("summarize = %+v, want n=5 p50=3", s)
	}
}

// TestQuartilesMatchPython checks quartiles against values printed by
// Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{ramp(10), [3]float64{2.75, 5.5, 8.25}},
		{ramp(5), [3]float64{1.5, 3, 4.5}},
		{[]float64{3.5, 1.25, 9, 2, 7.75, 4, 4, 10.5, 6, 0.5, 8}, [3]float64{2, 4, 8}},
		{[]float64{2, 8}, [3]float64{0.5, 5, 9.5}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
