package aco

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"bioschedsim/internal/xrand"
)

// searchCumLinear is the specification searchCum is held to: the first
// index whose entry exceeds x.
func searchCumLinear(cum []float64, x float64) int {
	for j, v := range cum {
		if v > x {
			return j
		}
	}
	return len(cum)
}

// maskedCumLoop is the plain loop maskedCum unrolls.
func maskedCumLoop(w []float64, tabu []bool, cum []float64) float64 {
	var acc float64
	for j := range cum {
		var wj float64
		if !tabu[j] {
			wj = w[j]
		}
		acc += wj
		cum[j] = acc
	}
	return acc
}

// prefixSum is maskedCum with no VM tabu.
func prefixSum(cum, w []float64) float64 { return maskedCum(w, make([]bool, len(w)), cum) }

// checkMaskedCum holds maskedCum to its plain loop, bit for bit, both into a
// separate cum and in place (cum aliasing w, as the vector layout calls it).
func checkMaskedCum(t *testing.T, name string, w []float64, tabu []bool) {
	t.Helper()
	want := make([]float64, len(w))
	wantTotal := maskedCumLoop(w, tabu, want)
	got := make([]float64, len(w))
	inPlace := append([]float64(nil), w...)
	for _, c := range []struct {
		mode  string
		total float64
		cum   []float64
	}{
		{"separate", maskedCum(w, tabu, got), got},
		{"in place", maskedCum(inPlace, tabu, inPlace), inPlace},
	} {
		if !sameBits(wantTotal, c.total) {
			t.Fatalf("%s (%s): maskedCum total = %v, plain loop %v", name, c.mode, c.total, wantTotal)
		}
		for j := range want {
			if !sameBits(want[j], c.cum[j]) {
				t.Fatalf("%s (%s): maskedCum cum[%d] = %v, plain loop %v", name, c.mode, j, c.cum[j], want[j])
			}
		}
	}
}

// sameBits is bit identity, except that any NaN matches any NaN: Go does not
// pin which operand's payload an addition propagates.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// decodeFloats reinterprets data as little-endian float64s — raw bit
// patterns, so the fuzzer reaches denormals, ±Inf, NaN payloads and ±0.
func decodeFloats(data []byte) []float64 {
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out
}

// FuzzRoulette checks searchCum against the linear scan on cum arrays
// sanitized to its contract (prefix sums of finite non-negative weights, so
// non-decreasing and NaN-free; probes non-NaN), and the unrolled maskedCum
// against the plain loop, bit for bit, on arbitrary bit patterns and tabu
// masks.
func FuzzRoulette(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("AAAAAAAA"))
	f.Add([]byte("AAAAAAAABBBBBBBBCCCCCCCCDDDDDDDDEEEEEEEEFFFFFFFFGGGGGGGGHHHHHHHHI"))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := decodeFloats(data)
		n := len(xs)

		w := make([]float64, n)
		for i, x := range xs {
			x = math.Abs(x)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = float64(i)
			}
			w[i] = x
		}
		cum := make([]float64, n)
		total := prefixSum(cum, w)
		probes := []float64{-1, 0, total / 2, total, total * 2}
		for _, x := range xs {
			if !math.IsNaN(x) {
				probes = append(probes, x)
			}
		}
		for _, x := range probes {
			if got, want := searchCum(cum, x), searchCumLinear(cum, x); got != want {
				t.Fatalf("searchCum(n=%d, x=%v) = %d, linear scan %d", n, x, got, want)
			}
		}

		tabu := make([]bool, n)
		for i := range tabu {
			tabu[i] = data[i]&0x80 != 0
		}
		checkMaskedCum(t, "fuzz", xs, tabu)
	})
}

// TestSearchCumPlateaus runs searchCum at fleet-scale lengths on prefix sums
// with runs of zero weights — the flat stretches tabu VMs leave behind —
// and probes every entry exactly, where an off-by-one upper bound shows.
func TestSearchCumPlateaus(t *testing.T) {
	rnd := xrand.New(1, 0)
	for _, n := range []int{1, 2, 3, 31, 32, 33, 50, 64, 100, 950, 1024} {
		w := make([]float64, n)
		for i := range w {
			if rnd.Intn(3) > 0 {
				w[i] = rnd.Float64()
			}
		}
		cum := make([]float64, n)
		total := prefixSum(cum, w)
		probes := append([]float64{-1, 0, total, math.Inf(1)}, cum...)
		for _, x := range probes {
			if got, want := searchCum(cum, x), searchCumLinear(cum, x); got != want {
				t.Fatalf("n=%d: searchCum(x=%v) = %d, linear scan %d", n, x, got, want)
			}
		}
	}
}

// TestMaskedCumMatchesPlainLoop holds the unrolled maskedCum to the plain
// loop, bit for bit, at every unroll tail and at fleet-scale lengths, in the
// magnitude regimes Eq. 5's weights can reach: ordinary, denormal and
// near-overflow (where the running total goes to +Inf).
func TestMaskedCumMatchesPlainLoop(t *testing.T) {
	scales := map[string]float64{"uniform": 1e3, "denormal": 1e-310, "huge": 1e300}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 31, 32, 33, 97, 1009, 4093} {
		for name, scale := range scales {
			rnd := xrand.New(17, uint64(n))
			w := make([]float64, n)
			tabu := make([]bool, n)
			for j := range w {
				w[j] = rnd.Float64() * scale
				tabu[j] = rnd.Intn(3) == 0
			}
			checkMaskedCum(t, fmt.Sprintf("n=%d %s", n, name), w, tabu)
		}
	}
}

// benchN is a paper-scale row length: class rows top out at the fleet size.
const benchN = 2048

func benchFloats(n int, seed uint64) []float64 {
	rnd := xrand.New(seed, 0)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rnd.Float64()*1e4 + 1e-3
	}
	return xs
}

func BenchmarkSearchCum(b *testing.B) {
	w := benchFloats(benchN, 4)
	cum := make([]float64, benchN)
	total := prefixSum(cum, w)
	probes := benchFloats(256, 5)
	for i := range probes {
		probes[i] = probes[i] / 1e4 * total
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if searchCum(cum, probes[i&255]) < 0 {
			b.Fatal("bad index")
		}
	}
}

func BenchmarkMaskedCum(b *testing.B) {
	w := benchFloats(benchN, 6) // one cloudlet's cached weight row
	rnd := xrand.New(8, 0)
	tabu := make([]bool, benchN)
	for i := range tabu {
		tabu[i] = rnd.Intn(8) == 0
	}
	cum := make([]float64, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if maskedCum(w, tabu, cum) <= 0 {
			b.Fatal("bad total")
		}
	}
}
