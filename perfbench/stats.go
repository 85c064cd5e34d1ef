package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the default,
// "exclusive" method). It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least two values, have %d", len(xs))
	}
	s := sortedCopy(xs)
	ld, m := len(s), len(s)+1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailMinBeyond = 10

// rankOf is the 1-based nearest-rank position of percentile p in n sorted
// samples.
func rankOf(p float64, n int) int {
	tenths := int(math.Round(p * 10)) // integer arithmetic: 99.9/100*10000 is not exact
	r := (tenths*n + 999) / 1000
	return min(max(r, 1), n)
}

// tailPercentile returns the highest ladder percentile with at least
// tailMinBeyond of n samples beyond it, and false when there is none.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= tailMinBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-th percentile of xs and the number
// of samples beyond it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	s := sortedCopy(xs)
	r := rankOf(p, len(s))
	return s[r-1], len(s) - r
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
