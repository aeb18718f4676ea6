package main

import (
	"math"
	"sort"
)

// median returns the middle value of vals (the mean of the two middle
// values for an even count), or 0 when empty. vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank p-quantile of vals, or 0 when empty.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s))-1e-9)) - 1 // nearest rank, immune to p*n landing just above an integer
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailPercentile returns the highest percentile of n samples that still
// has at least ten samples beyond it, rounded down to a whole percent, and
// whether one exists (n ≥ 20; below that only the median is reported).
func tailPercentile(n int) (p float64, ok bool) {
	if n < 20 {
		return 0, false
	}
	pct := 100 * (n - 10) / n
	if pct > 99 {
		pct = 99
	}
	return float64(pct) / 100, true
}

// tail returns the value at tailPercentile of vals and the percentile used
// (0, 0 when there are too few samples).
func tail(vals []float64) (value, p float64) {
	p, ok := tailPercentile(len(vals))
	if !ok {
		return 0, 0
	}
	return quantile(vals, p), p
}
