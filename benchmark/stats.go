package main

import (
	"math"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads read here match spreads computed from the printed values.
// With fewer than two values both quartiles equal the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-th percentile of xs (p in
// [0, 100]): the smallest value with at least p% of the samples at or
// below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(1, min(r, n))
}

// tailPercentiles are the tail percentiles a timing may be reported at.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest percentile in tailPercentiles that
// has at least ten of n samples beyond it, or 0 when even p75 has fewer:
// a tail read from fewer samples is one or two outliers, not a tail.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 0
}
