package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
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
		h := MakeHistogramCore(bounds)
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
	if h := MakeHistogramCore(ExpBuckets(1e-3, 1.15, 100)); h.invLog2Step == 0 {
		t.Fatal("an ExpBuckets layout was not recognised as exponential")
	}
	if h := MakeHistogramCore([]float64{1, 2, 3, 4, 5}); h.invLog2Step != 0 {
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

// snapshotQuantile is Quantile as it read before the bucket core: the
// interpolation over a snapshot's cumulative counts, kept as the oracle the
// core's single pass over its own counts is held to.
func snapshotQuantile(snap HistogramSnapshot, q float64) float64 {
	if math.IsNaN(q) || q < 0 || q > 1 || snap.Count == 0 {
		return math.NaN()
	}
	rank := q * float64(snap.Count)
	for i, cum := range snap.Cumulative {
		if float64(cum) < rank {
			continue
		}
		lo, loCount := 0.0, uint64(0)
		if i > 0 {
			lo, loCount = snap.Bounds[i-1], snap.Cumulative[i-1]
		}
		in := snap.Cumulative[i] - loCount
		if in == 0 {
			return snap.Bounds[i]
		}
		return lo + (snap.Bounds[i]-lo)*(rank-float64(loCount))/float64(in)
	}
	return snap.Bounds[len(snap.Bounds)-1]
}

// FuzzHistogramCore feeds the same float bit patterns to a locked
// Histogram and to a bare HistogramCore, optionally split across a second
// pair that is then merged in, and requires the same per-bucket counts,
// Count, Sum bits, Snapshot and Quantile bits at q ∈ {0, 0.5, 0.99, 1}.
// Both are also held to a reference: counts by binary search with NaN
// dropped, the sum in observation order (per part, then added), and the
// snapshot-based quantile. The seeds hold NaN, ±Inf, ±0, exact bounds,
// their neighbours, values past the last bound, and a median whose rank
// lands exactly on a bucket edge.
func FuzzHistogramCore(f *testing.F) {
	layouts := [][]float64{
		ExpBuckets(1e-3, 1.15, 100),
		ExpBuckets(1, 2, 13),
		{1, 2, 3, 4, 5},
		{7},
	}
	pack := func(vs ...float64) []byte {
		out := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	for i, bounds := range layouts {
		last := bounds[len(bounds)-1]
		edges := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1, 2 * last, math.MaxFloat64}
		for _, b := range bounds[:min(len(bounds), 8)] {
			edges = append(edges, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
		}
		edges = append(edges, last, math.Nextafter(last, math.Inf(1)))
		f.Add(uint8(i), false, uint16(0), pack(edges...))
		f.Add(uint8(i), true, uint16(len(edges)/2), pack(edges...))
		f.Add(uint8(i), true, uint16(0), pack(bounds[0]/2, last, last*10))
	}
	// The median's rank lands exactly on a bound with an empty bucket
	// after it, where the rank test's strictness decides the bucket.
	f.Add(uint8(2), true, uint16(1), pack(0.5, 2.5))
	f.Fuzz(func(t *testing.T, layout uint8, merge bool, split uint16, data []byte) {
		bounds := layouts[int(layout)%len(layouts)]
		vs := make([]float64, len(data)/8)
		for i := range vs {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		k := len(vs)
		if merge {
			k = int(split) % (len(vs) + 1)
		}

		locked, core := NewHistogram(bounds), MakeHistogramCore(bounds)
		wantCounts := make([]uint64, len(bounds)+1)
		var wantCount uint64
		wantSum := 0.0
		observe := func(h *Histogram, c *HistogramCore, part []float64) {
			sum := 0.0
			for _, v := range part {
				h.Observe(v)
				c.Observe(v)
				if !math.IsNaN(v) {
					wantCounts[sort.SearchFloat64s(bounds, v)]++
					wantCount++
					sum += v
				}
			}
			wantSum += sum
		}
		observe(locked, &core, vs[:k])
		if merge {
			other, otherCore := NewHistogram(bounds), MakeHistogramCore(bounds)
			observe(other, &otherCore, vs[k:])
			locked.Merge(other)
			core.Merge(&otherCore)
		}

		for name, c := range map[string]*HistogramCore{"locked": &locked.core, "core": &core} {
			if !slices.Equal(c.counts, wantCounts) {
				t.Fatalf("%s: counts %v, want %v", name, c.counts, wantCounts)
			}
			if c.count != wantCount || math.Float64bits(c.sum) != math.Float64bits(wantSum) {
				t.Fatalf("%s: count %d sum %v, want %d and %v", name, c.count, c.sum, wantCount, wantSum)
			}
		}
		got, want := core.Snapshot(), locked.Snapshot()
		if !slices.Equal(got.Bounds, want.Bounds) || !slices.Equal(got.Cumulative, want.Cumulative) ||
			got.Count != want.Count || math.Float64bits(got.Sum) != math.Float64bits(want.Sum) {
			t.Fatalf("core snapshot %+v, locked %+v", got, want)
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			c, l, ref := core.Quantile(q), locked.Quantile(q), snapshotQuantile(want, q)
			if math.Float64bits(c) != math.Float64bits(ref) || math.Float64bits(l) != math.Float64bits(ref) {
				t.Fatalf("Quantile(%v): core %v, locked %v, snapshot oracle %v", q, c, l, ref)
			}
		}
	})
}
