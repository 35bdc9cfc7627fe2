package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// HistogramCore is a fixed-bucket histogram in the cumulative style
// Prometheus expects: observation x lands in the first bucket whose upper
// bound is ≥ x, and a snapshot reports, per bound, how many observations
// were ≤ it, plus the running sum and count. It takes no lock: a core has
// one owner at a time, as a capacity-planning run's recorder does, and
// cores merge only once their writers are done. Histogram wraps one with a
// mutex for concurrent writers. Copy a core only before its first use; a
// copy shares its counts.
type HistogramCore struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []uint64  // len(bounds)+1; counts[len(bounds)] is the +Inf bucket
	sum    float64
	count  uint64

	// log2Start and invLog2Step index an exponential layout in O(1): bound
	// i is bounds[0]·factor^i up to rounding, so a value's bucket is near
	// (log₂ v − log₂ bounds[0]) / log₂ factor. invLog2Step is 0 for any
	// other layout, which is binary searched.
	log2Start, invLog2Step float64
}

// MakeHistogramCore returns an empty core over the given ascending upper
// bounds. It panics on empty, unsorted, duplicate, or non-finite bounds —
// bucket layouts are static configuration, where failing fast at
// construction is the only sensible behaviour.
func MakeHistogramCore(bounds []float64) HistogramCore {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("metrics: non-finite histogram bound %v", b))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not strictly ascending at index %d (%v after %v)", i, b, bounds[i-1]))
		}
	}
	h := HistogramCore{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	if factor, ok := expFactor(bounds); ok {
		h.log2Start = math.Log2(bounds[0])
		h.invLog2Step = 1 / math.Log2(factor)
	}
	return h
}

// Histogram is a thread-safe HistogramCore: every method takes its mutex,
// so any number of goroutines may observe, merge and snapshot at once. The
// scheduling service records per-scheduler scheduling-time distributions
// with it; nothing in it is HTTP-specific, so ablation harnesses can reuse
// it for any latency-shaped quantity.
type Histogram struct {
	mu   sync.Mutex
	core HistogramCore
}

// NewHistogram returns a histogram over the given ascending upper bounds,
// which must satisfy MakeHistogramCore.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{core: MakeHistogramCore(bounds)}
}

// expFactor reports whether bounds grow by one constant factor, to within
// the rounding ExpBuckets accumulates, and returns it. It also requires
// what fastLog2's error bound needs: normal bounds, and a factor of at
// least 2^fastLog2Err, so that the estimate lands within one bucket.
func expFactor(bounds []float64) (float64, bool) {
	if len(bounds) < 2 || bounds[0] < 0x1p-1022 {
		return 0, false
	}
	factor := bounds[1] / bounds[0]
	if factor < math.Exp2(fastLog2Err) {
		return 0, false
	}
	for i := 2; i < len(bounds); i++ {
		if math.Abs(bounds[i]/bounds[i-1]/factor-1) > 1e-9 {
			return 0, false
		}
	}
	return factor, true
}

// fastLog2Err bounds |fastLog2(v) − log₂ v|: the largest gap between
// log₂(1+f) and its chord f on [0, 1).
const fastLog2Err = 0.0861

// fastLog2 approximates log₂ v for a positive normal v from its bits: the
// unbiased exponent plus the mantissa fraction, the chord of log₂(1+f).
func fastLog2(v float64) float64 {
	bits := math.Float64bits(v)
	return float64(int(bits>>52)-1023) + float64(bits&(1<<52-1))*0x1p-52
}

// index returns the first bucket whose bound is ≥ v, exactly what
// sort.SearchFloat64s(h.bounds, v) returns. On an exponential layout a
// logarithm estimated from v's bits guesses the bucket to within one, and
// comparisons against the bounds on each side correct the guess, so
// rounding never moves a value to a neighbouring bucket.
func (h *HistogramCore) index(v float64) int {
	b := h.bounds
	if h.invLog2Step == 0 {
		return sort.SearchFloat64s(b, v)
	}
	last := len(b) - 1
	switch {
	case v <= b[0]:
		return 0
	case v > b[last]:
		return len(b)
	}
	// b[0] < v ≤ b[last], so the answer lies in [1, last].
	i := 1
	if g := math.Ceil((fastLog2(v) - h.log2Start) * h.invLog2Step); g > 1 {
		i = min(int(g), last)
	}
	for b[i-1] >= v {
		i--
	}
	for b[i] < v {
		i++
	}
	return i
}

// ExpBuckets returns n exponentially spaced bounds start, start·factor,
// start·factor², … — the standard layout for latency histograms. It panics
// on non-positive start, factor ≤ 1, or n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("metrics: invalid ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Observe records one value. NaN observations are dropped — they would
// poison the sum without being attributable to any bucket.
func (h *HistogramCore) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.add(h.index(v), v)
}

// add counts v into bucket i.
func (h *HistogramCore) add(i int, v float64) {
	h.counts[i]++
	h.count++
	h.sum += v
}

// Merge folds o's observations into h: per-bucket counts, the observation
// count, and the running sum all add. Both must share the same bucket
// layout; like MakeHistogramCore, a mismatch panics because layouts are
// static configuration.
func (h *HistogramCore) Merge(o *HistogramCore) {
	if len(o.bounds) != len(h.bounds) {
		panic(fmt.Sprintf("metrics: merging histograms with %d and %d bounds", len(h.bounds), len(o.bounds)))
	}
	for i, b := range o.bounds {
		if b != h.bounds[i] { // layout identity is exact equality by design
			panic(fmt.Sprintf("metrics: merging histograms with different bounds at index %d (%v vs %v)", i, h.bounds[i], b))
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum += o.sum
	h.count += o.count
}

// HistogramSnapshot is a consistent point-in-time view of a histogram.
type HistogramSnapshot struct {
	Bounds     []float64 // upper bounds, ascending (excludes +Inf)
	Cumulative []uint64  // per bound: observations ≤ bound
	Sum        float64
	Count      uint64 // total observations, including the +Inf bucket
}

// Snapshot returns a cumulative view suitable for direct rendering as
// Prometheus `_bucket`/`_sum`/`_count` series.
func (h *HistogramCore) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Bounds:     h.bounds, // immutable after construction
		Cumulative: make([]uint64, len(h.bounds)),
		Sum:        h.sum,
		Count:      h.count,
	}
	var running uint64
	for i := range h.bounds {
		running += h.counts[i]
		snap.Cumulative[i] = running
	}
	return snap
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket layout the
// way Prometheus' histogram_quantile does: find the first bucket whose
// cumulative count reaches q·Count and interpolate linearly within it,
// treating the first bucket's lower edge as 0. Observations above the last
// bound live in the implicit +Inf bucket, so any quantile landing there
// clamps to the last finite bound — the histogram cannot resolve beyond it.
// It returns NaN for an empty histogram or a q outside [0, 1].
func (h *HistogramCore) Quantile(q float64) float64 {
	if math.IsNaN(q) || q < 0 || q > 1 || h.count == 0 {
		return math.NaN()
	}
	rank := q * float64(h.count)
	var cum uint64 // observations in the buckets before i
	for i, b := range h.bounds {
		in := h.counts[i]
		if float64(cum+in) < rank {
			cum += in
			continue
		}
		if in == 0 {
			return b
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo + (b-lo)*(rank-float64(cum))/float64(in)
	}
	// The rank falls in the +Inf bucket: clamp to the largest finite bound.
	return h.bounds[len(h.bounds)-1]
}

// Observe records one value; NaN is dropped. Only the count update holds
// the lock: the bucket index is found before taking it.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := h.core.index(v)
	h.mu.Lock()
	h.core.add(i, v)
	h.mu.Unlock()
}

// Merge folds o's observations into h (HistogramCore.Merge). It locks o
// only long enough to copy its counts and never holds both locks at once,
// so any two histograms can be merged concurrently with ongoing Observe
// calls — the sharded daemon uses this to render one fleet-wide series
// from per-shard histograms at scrape time.
func (h *Histogram) Merge(o *Histogram) {
	o.mu.Lock()
	c := o.core
	c.counts = slices.Clone(c.counts)
	o.mu.Unlock()

	h.mu.Lock()
	defer h.mu.Unlock()
	h.core.Merge(&c)
}

// Snapshot returns HistogramCore.Snapshot under the lock.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.core.Snapshot()
}

// Quantile returns HistogramCore.Quantile under the lock.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.core.Quantile(q)
}
