package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it. xs
// need not be sorted; it is not modified. An empty slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the midpoint of the sorted samples (the mean of the two middle
// ones for an even count), the form the run-to-run comparisons use.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
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

// tailPercentiles are the candidates tailQuantile chooses from, highest
// first.
var tailPercentiles = []float64{0.999, 0.99, 0.9}

// tailQuantile returns the highest percentile among p99.9, p99 and p90 that
// keeps at least ten samples beyond it, and that percentile. With fewer
// than 100 samples no candidate qualifies and ok is false.
func tailQuantile(xs []float64) (value, q float64, ok bool) {
	for _, q := range tailPercentiles {
		if beyond := len(xs) - int(math.Ceil(q*float64(len(xs)))); beyond >= 10 {
			return quantile(xs, q), q, true
		}
	}
	return math.NaN(), 0, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durations converts a duration sample set to float64s in the given unit.
func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
