package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the middle two).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tailPercentile returns the highest whole percentile p such that at least
// minBeyond of the samples lie above it, and the value at that percentile
// (nearest rank). With no more than minBeyond samples it returns the
// maximum as p100.
func tailPercentile(xs []float64, minBeyond int) (p int, v float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for p = 99; p > 0; p-- {
		rank := int(math.Ceil(float64(p) / 100 * float64(n))) // 1-based
		if n-rank >= minBeyond {
			return p, s[rank-1]
		}
	}
	return 100, s[n-1]
}

// percentile returns the p-th percentile of xs by nearest rank.
func percentile(xs []float64, p int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(p) / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
