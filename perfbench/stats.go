package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported: p99 needs at least 1,000 samples, p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs, and
// false when fewer than minBeyond samples lie beyond it. xs need not be
// sorted; it is sorted in place.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || float64(n)*(1-p) < minBeyond-1e-9 {
		return 0, false
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i], true
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
