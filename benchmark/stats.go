package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 for an empty slice.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of v: the
// smallest sample with at least p % of the samples at or below it. With fewer
// than 100 samples p99 is the largest one, which is why every percentile is
// reported next to its sample count.
func percentile(v []float64, p float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// geomean is the geometric mean of positive values, so that no one cell of a
// multi-cell workload drowns the others.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// spread is the run-to-run spread the benchmark contract uses: the distance
// between the first and third quartile as a share of the median, quartiles as
// Python's statistics.quantiles(v, n=4) computes them. Two or three samples
// fall back to the full range; a single sample has no spread (ok is false).
func spread(v []float64) (share float64, ok bool) {
	s := sorted(v)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0, false
	}
	if n < 4 {
		return (s[n-1] - s[0]) / math.Abs(med), true
	}
	q := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / math.Abs(med), true
}
