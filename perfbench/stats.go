package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile, so the tail is a measured value and not a single outlier.
const tailBeyond = 10

// median returns the median of xs, or 0 when xs is empty. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// probeTrim is the share of samples trimmedMean drops at each end.
const probeTrim = 0.1

// trimmedMean returns the mean of xs without the lowest and highest
// probeTrim of the samples, or 0 when xs is empty.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	cut := int(probeTrim * float64(len(s)))
	s = s[cut : len(s)-cut]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// tail returns the highest percentile of xs that still has tailBeyond
// samples above it: the (n−tailBeyond)-th smallest sample, at percentile
// 100·(n−tailBeyond)/n. With too few samples for that it falls back to
// the maximum at percentile 100. beyond is the number of samples above
// the returned value's rank.
func tail(xs []float64) (value, pct float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(xs)
	i := n - 1 - tailBeyond
	if i < 0 {
		i = n - 1
	}
	return s[i], 100 * float64(i+1) / float64(n), n - 1 - i
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// finite reports whether every value is a finite number.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
