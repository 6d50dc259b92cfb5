package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// when at least this many samples lie strictly beyond it, so that the
// figure rests on more than a handful of outliers.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the middle two for an even
// count), or NaN when xs is empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midMean returns the interquartile mean of xs: the mean of the samples
// left when the lowest and highest quarter (rounded down) are dropped, or
// NaN when xs is empty. Like a median it ignores the tails, but it
// averages half the samples instead of reading one or two.
func midMean(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	mid := sorted(xs)[n/4 : n-n/4]
	return sum(mid) / float64(len(mid))
}

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and
// whether it may be reported: true only when at least minBeyond samples
// rank strictly above it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	// 1-based nearest rank; the epsilon keeps products such as 0.9·110,
	// which float64 rounds up past 99, on their exact rank.
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	return sorted(xs)[rank-1], n-rank >= minBeyond
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never
// entered reports no rate rather than NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
