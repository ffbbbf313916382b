package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile
// of xs by the method of Python's statistics.quantiles(xs, n=4) (its
// default "exclusive" method), the rule benchmark spreads are judged by.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// tailLadder are the percentiles a tail latency may be reported at, in
// hundredths of a percent.
var tailLadder = []int{5000, 9000, 9900, 9990, 9999}

// tailPercentile returns the highest percentile of the ladder 50, 90, 99,
// 99.9, 99.99 that leaves at least ten of n samples beyond it; ok is false
// when not even the median does (n < 20).
func tailPercentile(n int) (p float64, ok bool) {
	for _, h := range tailLadder {
		if n*(10000-h) >= 10*10000 {
			p, ok = float64(h)/100, true
		}
	}
	return p, ok
}

// percentile is the nearest-rank p-th percentile of xs (p in (0, 100]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(k, 1), len(s))-1]
}
