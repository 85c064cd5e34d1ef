package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	// statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6}, // extrapolates past the data, as Python does
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: no error")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		ok     bool
		beyond int
	}{
		{1, 0, false, 0},
		{19, 0, false, 0},    // p50 leaves 9 beyond
		{20, 50, true, 10},   // p50 leaves exactly 10
		{72, 75, true, 18},   // fig8's pass: p90 would leave 7
		{2000, 99, true, 20}, // fleet's pass: p99.9 would leave 2
		{9999, 99, true, 99},
		{10000, 99.9, true, 10},
	} {
		pct, ok := tailPercentile(tc.n)
		if pct != tc.pct || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v %v, want %v %v", tc.n, pct, ok, tc.pct, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending, so sorting matters
		}
		v, beyond := percentile(xs, pct)
		if beyond != tc.beyond || beyond < tailMinBeyond {
			t.Errorf("n=%d p%v: %d samples beyond, want %d", tc.n, pct, beyond, tc.beyond)
		}
		// Exactly `beyond` samples exceed the reported value.
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if above != beyond {
			t.Errorf("n=%d p%v = %v: %d samples above it, reported %d", tc.n, pct, v, above, beyond)
		}
	}
}
