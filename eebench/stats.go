package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the nearest-rank p-th percentile of an ascending
// sample: the element at rank ceil(p/100 * n), clamped to [1, n]. No
// interpolation, so the result is always a latency that occurred.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := rankOf(n, p)
	return sorted[r-1]
}

func rankOf(n int, p float64) int {
	// The small epsilon keeps p*n/100 products such as 83*100/100 from
	// rounding up to the next rank through floating-point error.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// minBeyondTail is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyondTail = 10

// tail returns the highest whole nearest-rank percentile of xs, p50 to
// p99, that has at least minBeyondTail samples beyond it, together with its
// value. ok is false when the sample is too small for even p50 to qualify.
func tail(xs []float64) (p, v float64, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for p := 99.0; p >= 50; p-- {
		if n-rankOf(n, p) >= minBeyondTail {
			return p, nearestRank(s, p), true
		}
	}
	return 0, 0, false
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x < m {
			m = x
		}
	}
	return m
}

// mean returns the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
