package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("Summary = %+v", s)
	}
	if !approx(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Fatalf("Std = %g", s.Std)
	}
}

func TestSummarizeEvenMedian(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 {
		t.Fatalf("Median = %g", s.Median)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Fatalf("single = %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(f.Slope, 2, 1e-12) || !approx(f.Intercept, 3, 1e-12) || !approx(f.R2, 1, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("zero x-variance accepted")
	}
}

func TestLinearFitConstantY(t *testing.T) {
	f, err := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(f.Slope, 0, 1e-12) || f.R2 != 1 {
		t.Fatalf("fit = %+v", f)
	}
}

func TestPowerLawFitExact(t *testing.T) {
	// y = 3 x^2
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	p, c, r2, err := PowerLawFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p, 2, 1e-9) || !approx(c, 3, 1e-9) || !approx(r2, 1, 1e-9) {
		t.Fatalf("p=%g c=%g r2=%g", p, c, r2)
	}
}

func TestPowerLawFitRejectsNonPositive(t *testing.T) {
	if _, _, _, err := PowerLawFit([]float64{1, 0}, []float64{1, 1}); err == nil {
		t.Fatal("x=0 accepted")
	}
	if _, _, _, err := PowerLawFit([]float64{1, 2}, []float64{1, -1}); err == nil {
		t.Fatal("y<0 accepted")
	}
	if _, _, _, err := PowerLawFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatch accepted")
	}
}

// Property: recovering a noiseless random power law.
func TestQuickPowerLawRecovery(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Float64()*4 - 2   // exponent in [-2, 2]
		c := rng.Float64()*10 + .1 // constant in [.1, 10.1]
		xs := []float64{1, 2, 3, 5, 8, 13, 21}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = c * math.Pow(x, p)
		}
		gp, gc, r2, err := PowerLawFit(xs, ys)
		if err != nil {
			return false
		}
		return approx(gp, p, 1e-6) && approx(gc, c, 1e-6*c+1e-9) && approx(r2, 1, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies within [min, max]; std >= 0.
func TestQuickSummaryBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Skip values whose squares overflow float64 — Summarize is not
			// specified for those.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e150 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 && s.Std >= 0 &&
			s.Median >= s.Min-1e-9 && s.Median <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
