// Package stats provides the descriptive statistics and trend tools the
// experiment harness and the reproduction assertions use: summary moments,
// percentiles, Welch's t, and least-squares slopes for "does this curve go
// down?" checks.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n−1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary; it returns the zero value for empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	s.Median = Percentile(xs, 50)
	return s
}

// Percentile returns the p-th percentile (0–100) with linear interpolation.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Slope returns the ordinary-least-squares slope of y over x. The
// reproduction assertions use its sign: e.g. simulation time must fall as
// VM count rises (Fig. 4). It errors on mismatched or deficient input.
func Slope(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: slope input length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, fmt.Errorf("stats: slope needs at least 2 points, got %d", len(x))
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(len(x)), sy/float64(len(y))
	var num, den float64
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		den += (x[i] - mx) * (x[i] - mx)
	}
	if den == 0 {
		return 0, fmt.Errorf("stats: slope undefined for constant x")
	}
	return num / den, nil
}

// WelchT computes Welch's unequal-variance t statistic and its
// Welch–Satterthwaite degrees of freedom for two samples. The experiment
// harness uses it to decide whether "algorithm A beats B" survives
// seed-to-seed noise across repeated runs.
func WelchT(a, b []float64) (tstat, dof float64, err error) {
	if len(a) < 2 || len(b) < 2 {
		return 0, 0, fmt.Errorf("stats: WelchT needs at least 2 samples per side, got %d and %d", len(a), len(b))
	}
	sa, sb := Summarize(a), Summarize(b)
	va := sa.Std * sa.Std / float64(sa.N)
	vb := sb.Std * sb.Std / float64(sb.N)
	if va+vb == 0 {
		return 0, 0, fmt.Errorf("stats: WelchT undefined for two zero-variance samples")
	}
	tstat = (sa.Mean - sb.Mean) / math.Sqrt(va+vb)
	dof = (va + vb) * (va + vb) /
		(va*va/float64(sa.N-1) + vb*vb/float64(sb.N-1))
	return tstat, dof, nil
}
