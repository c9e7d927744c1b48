package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile's rank before
// the percentile is reported: fewer, and the value is decided by a handful
// of samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1): the
// sample at rank ⌈q·n⌉ in ascending order. ok is false, with a reason,
// when fewer than minBeyond samples lie beyond that rank.
func percentile(xs []float64, q float64) (v float64, ok bool, reason string) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, false, fmt.Sprintf("%d samples leave %d beyond p%g, need %d", n, beyond, 100*q, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true, ""
}

// median is the middle value of xs (mean of the two middle values for an
// even count), 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the definition the
// benchmark's spread bounds are stated in. One sample is both quartiles;
// none gives zeros.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := n + 1
	q := func(i int) float64 {
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

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is num/den, 0 when den is 0 (a layer the workload never ran).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
