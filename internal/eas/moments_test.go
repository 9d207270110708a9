package eas

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) < 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestMean(t *testing.T) {
	if got := mean(nil); got != 0 {
		t.Errorf("mean(nil) = %v", got)
	}
	if got := mean([]float64{2, 4, 6}); !almostEq(got, 4) {
		t.Errorf("mean = %v, want 4", got)
	}
	if got := mean([]float64{-1, 1}); !almostEq(got, 0) {
		t.Errorf("mean = %v, want 0", got)
	}
}

func TestVariance(t *testing.T) {
	if got := variance(nil); got != 0 {
		t.Errorf("variance(nil) = %v", got)
	}
	if got := variance([]float64{5}); got != 0 {
		t.Errorf("variance(single) = %v", got)
	}
	// Population variance of {2,4,6} is ((-2)^2+0+2^2)/3 = 8/3.
	if got := variance([]float64{2, 4, 6}); !almostEq(got, 8.0/3.0) {
		t.Errorf("variance = %v, want %v", got, 8.0/3.0)
	}
}

func TestInt64Variants(t *testing.T) {
	if got := mean(times2f([]int64{290, 310})); !almostEq(got, 300) {
		t.Errorf("mean of int64 samples = %v", got)
	}
	// Population variance of {290,310} is 100 — the Fig. 2 task weight
	// building block.
	if got := varianceInt64([]int64{290, 310}); !almostEq(got, 100) {
		t.Errorf("varianceInt64 = %v, want 100", got)
	}
}

// Property: variance is non-negative and translation-invariant.
func TestQuickVarianceProperties(t *testing.T) {
	f := func(xs []float64, shift float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true // skip pathological inputs
			}
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		v := variance(xs)
		if v < 0 {
			return false
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		return math.Abs(variance(shifted)-v) < 1e-6*(1+v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the mean lies between the smallest and largest sample.
func TestQuickMeanBounds(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				return true
			}
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs[1:] {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		m := mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
