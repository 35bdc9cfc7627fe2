package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	a := NewSource(1)
	b := NewSource(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d times in 1000 draws", same)
	}
}

func TestInt63NonNegative(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := NewSource(seed)
		for i := 0; i < 64; i++ {
			if s.Int63() < 0 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewSource(7)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children must differ from each other.
	collisions := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("sibling streams collided %d/1000 times", collisions)
	}
}

func TestSplitDeterministic(t *testing.T) {
	mk := func() []uint64 {
		p := NewSource(99)
		c := p.Split()
		out := make([]uint64, 16)
		for i := range out {
			out[i] = c.Uint64()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split stream not deterministic at %d", i)
		}
	}
}

func TestStreamPure(t *testing.T) {
	if err := quick.Check(func(seed, n uint64) bool {
		a := Stream(seed, n)
		b := Stream(seed, n)
		for i := 0; i < 8; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDistinctIndexes(t *testing.T) {
	seen := map[uint64]uint64{}
	for n := uint64(0); n < 4096; n++ {
		v := Stream(12345, n).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("streams %d and %d share first draw %d", prev, n, v)
		}
		seen[v] = n
	}
}

func TestUniformity(t *testing.T) {
	// Chi-squared over 256 buckets of the top byte; very loose bound.
	const draws = 1 << 16
	var buckets [256]int
	s := NewSource(2024)
	for i := 0; i < draws; i++ {
		buckets[s.Uint64()>>56]++
	}
	expected := float64(draws) / 256
	chi2 := 0.0
	for _, c := range buckets {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 255 dof; mean 255, sd ~22.6. Allow 6 sigma.
	if chi2 > 255+6*math.Sqrt(2*255) {
		t.Fatalf("chi-squared too high: %f", chi2)
	}
}

func TestRandFloatRange(t *testing.T) {
	r := New(5, 0)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func BenchmarkSourceUint64(b *testing.B) {
	s := NewSource(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

// One Source walked across child streams with SetStream, under one reused
// *rand.Rand, draws exactly what a fresh New(seed, n) draws for each.
func TestSetStreamMatchesNew(t *testing.T) {
	src := NewSource(0)
	rnd := src.Rand()
	for n := uint64(0); n < 50; n++ {
		src.SetStream(77, n)
		fresh := New(77, n)
		for i := 0; i < 20; i++ {
			if a, b := rnd.Intn(1000), fresh.Intn(1000); a != b {
				t.Fatalf("stream %d draw %d: Intn %d != %d", n, i, a, b)
			}
			if a, b := rnd.Float64(), fresh.Float64(); a != b {
				t.Fatalf("stream %d draw %d: Float64 %v != %v", n, i, a, b)
			}
		}
	}
}
