package objective

import (
	"fmt"
	"math"
	"testing"

	"bioschedsim/internal/xrand"
)

// samePow is bit identity, except that any NaN matches any NaN.
func samePow(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// powXs are the bases every exponent is tried on: the IEEE specials, both
// ends of the subnormal and normal ranges, 1 and its neighbours, negative
// bases, and the magnitudes Eq. 5's η = 1/d and pheromone trails take.
var powXs = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, 0x1p-1050, math.Nextafter(0x1p-1022, 0),
	0x1p-1022, math.Nextafter(0x1p-1022, 1), math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0),
	1, math.Nextafter(1, 0), math.Nextafter(1, 2), 0.5, 2, 3, 10, 1e-300, 1e300,
	-1, -2, -0.5, -0x1p-1022, -math.MaxFloat64, -math.SmallestNonzeroFloat64,
	1.0 / 3, 0.7, 1.5, 4.25e-3, 235.6, 1e5,
}

// powYs are the exponents: ACO's Table II α and β, ½ and its neighbours,
// the edges of (0, 1), integers, negative and greater-than-one exponents.
var powYs = []float64{
	0.01, 0.99, 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
	math.Nextafter(1, 0), 1e-300, math.SmallestNonzeroFloat64, 0.25, 0.75,
	0, math.Copysign(0, -1), 1, 2, 3, -0.5, -0.01, -0.99, -1, -2, 1.5, 2.5, 1e300,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// powPairs are subnormal bases at exponents just below 1, where the fast
// path's single rounding of x·Exp(…) differs from math.Pow's rounding
// before its Ldexp: they show why Pow admits only normal x.
var powPairs = [][2]float64{
	{1.4550683982041466e-308, 0.9999999999989337},
	{1.408426789387784e-308, 0.9995797451101667},
	{1.8302307778052004e-308, 0.9999965064189353},
}

func checkPow(t *testing.T, x, y float64) {
	t.Helper()
	if got, want := Pow(x, y), math.Pow(x, y); !samePow(got, want) {
		t.Fatalf("Pow(%v, %v) = %v (%#x), math.Pow %v (%#x)", x, y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestPowMatchesMathPow holds Pow to math.Pow on every (x, y) pair of the
// tables above and on powPairs, then on random normal bases at every table
// exponent and on random exponents in (0, 1) over random bit-pattern bases.
func TestPowMatchesMathPow(t *testing.T) {
	for _, x := range powXs {
		for _, y := range powYs {
			checkPow(t, x, y)
		}
	}
	for _, p := range powPairs {
		checkPow(t, p[0], p[1])
	}
	rnd := xrand.New(28, 0)
	for i := 0; i < 20000; i++ {
		// A log-uniform normal base over the whole exponent range.
		x := math.Ldexp(1+rnd.Float64(), rnd.Intn(2046)-1022)
		for _, y := range powYs {
			checkPow(t, x, y)
		}
		checkPow(t, math.Float64frombits(rnd.Uint64()), rnd.Float64())
	}
}

// FuzzPow holds Pow to math.Pow, bit for bit with any NaN matching any
// NaN, on arbitrary float64 pairs.
func FuzzPow(f *testing.F) {
	for _, x := range powXs {
		for _, y := range []float64{0.01, 0.99, 0.5, math.Nextafter(0.5, 1), -1} {
			f.Add(x, y)
		}
	}
	for _, p := range powPairs {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, x, y float64) {
		checkPow(t, x, y)
	})
}

func BenchmarkPow(b *testing.B) {
	xs := make([]float64, 1024)
	rnd := xrand.New(3, 0)
	for i := range xs {
		xs[i] = rnd.Float64()*1e4 + 1e-3
	}
	for _, y := range []float64{0.01, 0.99} {
		b.Run(fmt.Sprintf("kernel/y=%v", y), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s += Pow(xs[i&1023], y)
			}
			powSink = s
		})
		b.Run(fmt.Sprintf("math/y=%v", y), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s += math.Pow(xs[i&1023], y)
			}
			powSink = s
		})
	}
}

var powSink float64
