package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestHistogramCumulativeSemantics(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 6 {
		t.Fatalf("count = %d, want 6", snap.Count)
	}
	// ≤1: {0.5, 1}; ≤10: +{5}; ≤100: +{50}; +Inf: +{500, 5000}.
	want := []uint64{2, 3, 4}
	for i, w := range want {
		if snap.Cumulative[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (snapshot %+v)", i, snap.Cumulative[i], w, snap)
		}
	}
	if got, wantSum := snap.Sum, 0.5+1+5+50+500+5000; got != wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(math.NaN())
	h.Observe(0.5)
	snap := h.Snapshot()
	if snap.Count != 1 || math.IsNaN(snap.Sum) {
		t.Fatalf("NaN observation polluted the histogram: %+v", snap)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":      {},
		"descending": {10, 1},
		"duplicate":  {1, 1},
		"nan":        {math.NaN()},
		"inf":        {math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds accepted", name)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1e-3, 10, 4)
	want := []float64{1e-3, 1e-2, 1e-1, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ExpBuckets(0, 2, 3) accepted")
			}
		}()
		ExpBuckets(0, 2, 3)
	}()
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 8))
	const goroutines, perG = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*perG+i) / 10)
			}
		}(g)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", snap.Count, goroutines*perG)
	}
	if snap.Cumulative[len(snap.Cumulative)-1] > snap.Count {
		t.Fatalf("cumulative exceeds count: %+v", snap)
	}
}

func TestHistogramQuantile(t *testing.T) {
	approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	cases := []struct {
		name    string
		bounds  []float64
		observe []float64
		q       float64
		want    float64 // math.NaN() means "expect NaN"
	}{
		{"empty histogram", []float64{1, 10}, nil, 0.5, math.NaN()},
		{"negative q", []float64{1, 10}, []float64{5}, -0.1, math.NaN()},
		{"q above one", []float64{1, 10}, []float64{5}, 1.5, math.NaN()},
		{"NaN q", []float64{1, 10}, []float64{5}, math.NaN(), math.NaN()},
		// A single observation in (1,10] interpolates within that bucket:
		// rank q·1 over 1 in-bucket count spans the bucket linearly.
		{"single observation median", []float64{1, 10}, []float64{5}, 0.5, 1 + 9*0.5},
		{"single observation p100", []float64{1, 10}, []float64{5}, 1, 10},
		// First bucket's lower edge is 0.
		{"first bucket interpolates from zero", []float64{10, 20}, []float64{1, 2, 3, 4}, 0.5, 5},
		// Observations above the last bound land in +Inf and clamp.
		{"out-of-range clamps to last bound", []float64{1, 10}, []float64{500, 600, 700}, 0.9, 10},
		{"zero q of nonempty", []float64{1, 10}, []float64{0.5, 5}, 0, 0},
		// Even split across two buckets: p50 hits the first bound exactly.
		{"even split", []float64{1, 10}, []float64{0.5, 1, 5, 7}, 0.5, 1},
		{"p75 of even split", []float64{1, 10}, []float64{0.5, 1, 5, 7}, 0.75, 1 + 9*0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(tc.bounds)
			for _, v := range tc.observe {
				h.Observe(v)
			}
			got := h.Quantile(tc.q)
			if math.IsNaN(tc.want) {
				if !math.IsNaN(got) {
					t.Fatalf("Quantile(%v) = %v, want NaN", tc.q, got)
				}
				return
			}
			if !approx(got, tc.want) {
				t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram(ExpBuckets(0.001, 2, 16))
	for i := 0; i < 1000; i++ {
		h.Observe(0.001 * float64(i%64))
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("Quantile not monotone: q=%v gives %v after %v", q, cur, prev)
		}
		prev = cur
	}
}

// The O(1) index of an exponential layout must agree with a binary search
// everywhere: at every bound, one ulp either side of it, at the edges, and
// at random values spread over and beyond the layout.
func TestHistogramIndexMatchesSearch(t *testing.T) {
	layouts := map[string][]float64{
		"latency":    ExpBuckets(1e-3, 1.15, 100),
		"batch size": ExpBuckets(1, 2, 13),
		"sched secs": ExpBuckets(1e-5, 4, 12),
		"decimal":    ExpBuckets(1e-3, 10, 4),
		"linear":     {1, 2, 3, 4, 5},
		"one bound":  {7},
	}
	rnd := rand.New(rand.NewSource(1))
	for name, bounds := range layouts {
		h := NewHistogram(bounds)
		probe := func(v float64) {
			if got, want := h.index(v), sort.SearchFloat64s(bounds, v); got != want {
				t.Fatalf("%s: index(%v) = %d, binary search says %d", name, v, got, want)
			}
		}
		for _, b := range bounds {
			probe(b)
			probe(math.Nextafter(b, math.Inf(-1)))
			probe(math.Nextafter(b, math.Inf(1)))
		}
		for _, v := range []float64{0, math.Inf(1), math.Inf(-1), -1} {
			probe(v)
		}
		lo, hi := math.Log(bounds[0]/10), math.Log(bounds[len(bounds)-1]*10)
		for i := 0; i < 100_000; i++ {
			probe(math.Exp(lo + rnd.Float64()*(hi-lo)))
		}
	}
	if NewHistogram(ExpBuckets(1e-3, 1.15, 100)).invLog2Step == 0 {
		t.Fatal("an ExpBuckets layout was not recognised as exponential")
	}
	if NewHistogram([]float64{1, 2, 3, 4, 5}).invLog2Step != 0 {
		t.Fatal("a linear layout was taken for exponential")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(ExpBuckets(1e-3, 1.15, 100))
	rnd := rand.New(rand.NewSource(1))
	vs := make([]float64, 1024)
	for i := range vs {
		vs[i] = math.Exp(math.Log(1e-3) + rnd.Float64()*math.Log(1e6))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vs[i&1023])
	}
}
