package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of vs by
// the exclusive method (Python's statistics.quantiles(vs, n=4)), which is the
// rule the regression gate applies to this benchmark's outputs; one shared
// definition keeps the spread printed here comparable with the one judged
// there. A single value is its own quartiles.
func quartiles(vs []float64) (q1, med, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(i*m - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle quartile of vs.
func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// spread is the interquartile distance as a share of the median: the noise
// figure a delta has to clear before it means anything.
func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// percentile returns the p-th percentile (0..100) of sorted, and how many
// samples lie strictly beyond that position — the count that says whether
// the percentile is supported by the sample.
func percentile(sorted []int64, p float64) (v int64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx], len(sorted) - 1 - idx
}
