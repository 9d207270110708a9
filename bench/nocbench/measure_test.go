package main

import (
	"testing"
)

// seq is the ascending sample 1..n, so a rank reads as its value.
func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestQuantileNearestRank(t *testing.T) {
	ten := seq(10)
	for _, c := range []struct {
		sorted   []float64
		perMille int
		want     float64
	}{
		{ten, 500, 5},  // ceil(5) = 5th
		{ten, 900, 9},  // ceil(9) = 9th
		{ten, 950, 10}, // ceil(9.5) = 10th
		{ten, 10, 1},   // ceil(0.1) = 1st
		{ten, 1000, 10},
		{[]float64{2.5, 4, 7}, 500, 4}, // ceil(1.5) = 2nd, never interpolated
		{[]float64{42}, 990, 42},
		{nil, 500, 0},
	} {
		if got := quantile(c.sorted, c.perMille); got != c.want {
			t.Errorf("quantile(%v, %d‰) = %g, want %g", c.sorted, c.perMille, got, c.want)
		}
	}
}

// TestTailHasTenBeyond pins the tail rule: the highest of p99.9, p99,
// p95, p90 and p75, up to the workload's own tail, with at least ten
// samples above its nearest rank.
func TestTailHasTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n, perMille int
		pct, val    float64
	}{
		{0, 999, 50, 0},
		{1, 999, 50, 1},
		{5, 999, 50, 3},          // p75 is rank 4: 1 beyond; the median is rank 3
		{40, 999, 75, 30},        // p90 is rank 36: 4 beyond; p75 rank 30: 10
		{100, 999, 90, 90},       // p95 is rank 95: 5 beyond; p90 rank 90: 10
		{199, 999, 90, 180},      // p95 is rank 190: 9 beyond
		{200, 999, 95, 190},      // p95 rank 190: 10 beyond
		{1000, 999, 99, 990},     // p99.9 is rank 999: 1 beyond; p99 rank 990: 10
		{9999, 999, 99, 9900},    // p99.9 is rank 9990: 9 beyond
		{10000, 999, 99.9, 9990}, // p99.9 rank 9990: 10 beyond
		{20000, 990, 99, 19800},  // capped at the workload's p99
		{300, 990, 95, 285},      // too few for p99 (3 beyond): p95 (15 beyond)
		{1000, 950, 95, 950},     // capped at p95
	} {
		pct, val := tail(seq(c.n), c.perMille)
		if pct != c.pct || val != c.val {
			t.Errorf("tail of 1..%d up to %d‰ = p%g %g, want p%g %g", c.n, c.perMille, pct, val, c.pct, c.val)
		}
	}
}
