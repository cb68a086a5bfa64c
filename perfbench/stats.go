package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1000 samples, a p90 at least 100.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count). It returns false for an empty sample.
func median(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], true
	}
	return (s[n/2-1] + s[n/2]) / 2, true
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs. It refuses, with an error, a percentile that has fewer than
// minTail samples beyond it: such a number is one outlier's value, not
// a tail.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g out of (0,100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minTail)
	}
	return sorted(xs)[rank-1], nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
