// Package stats provides the small statistical toolkit used by the
// experiment harness: summary statistics and log-log least-squares exponent
// fits (to report the empirical growth rate of message complexity curves
// against the paper's predicted exponents).
package stats

import (
	"fmt"
	"math"
)

// Summary holds basic summary statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes summary statistics. An empty sample yields a zero
// Summary with NaN-free fields.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	insertionSort(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Fit is a least-squares line y = Slope*x + Intercept with goodness R2.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit fits y = a*x + b by ordinary least squares. It returns an error
// for fewer than two points or zero x-variance.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: length mismatch %d != %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Fit{}, fmt.Errorf("stats: need >= 2 points, got %d", len(xs))
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("stats: zero variance in x")
	}
	slope := sxy / sxx
	f := Fit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		f.R2 = 1
	} else {
		f.R2 = (sxy * sxy) / (sxx * syy)
	}
	return f, nil
}

// PowerLawFit fits y = C * x^p by least squares in log-log space and returns
// the exponent p, the constant C, and R2 of the log-log fit. All samples must
// be strictly positive.
func PowerLawFit(xs, ys []float64) (exponent, constant, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, fmt.Errorf("stats: length mismatch %d != %d", len(xs), len(ys))
	}
	lx := make([]float64, 0, len(xs))
	ly := make([]float64, 0, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, 0, 0, fmt.Errorf("stats: non-positive sample (%g, %g) at %d", xs[i], ys[i], i)
		}
		lx = append(lx, math.Log(xs[i]))
		ly = append(ly, math.Log(ys[i]))
	}
	f, err := LinearFit(lx, ly)
	if err != nil {
		return 0, 0, 0, err
	}
	return f.Slope, math.Exp(f.Intercept), f.R2, nil
}
