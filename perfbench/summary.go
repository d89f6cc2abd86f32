package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points that split xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with its
// default exclusive method, so a spread read from this benchmark matches the
// spread a reader computes from its printed values. One sample yields that
// sample three times; no samples yield zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// tailLadder lists the percentiles a timing's tail is reported at, from the
// highest down.
var tailLadder = []float64{99.9, 99, 90, 50}

// tailPercentile returns the highest percentile of the ladder that still has
// at least ten of n samples beyond it; ok is false when even the median has
// fewer than ten samples above it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// share is part/base, or 0 when the base is empty. Every share the
// benchmark reports is printed next to the base it divides by.
func share(part, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return part / base
}

// selfTime is a span's duration minus the part of its interval covered by
// its children. Children may overlap each other (concurrent calls) and may
// stick out of the parent; only their union inside [start, end) counts.
func selfTime(start, end time.Duration, children [][2]time.Duration) time.Duration {
	var iv [][2]time.Duration
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	covered := time.Duration(0)
	var curLo, curHi time.Duration
	for k, c := range iv {
		switch {
		case k == 0:
			curLo, curHi = c[0], c[1]
		case c[0] > curHi:
			covered += curHi - curLo
			curLo, curHi = c[0], c[1]
		case c[1] > curHi:
			curHi = c[1]
		}
	}
	if len(iv) > 0 {
		covered += curHi - curLo
	}
	return end - start - covered
}
