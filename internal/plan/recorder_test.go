package plan

import (
	"math"
	"testing"

	"bioschedsim/internal/xrand"
)

// TestLatencyStatsBasics checks the exact-sum paths and the histogram
// quantile wiring.
func TestLatencyStatsBasics(t *testing.T) {
	s := NewLatencyStats()
	if s.Count() != 0 {
		t.Fatalf("fresh Count = %d", s.Count())
	}
	if !math.IsNaN(s.Quantile(0.99)) || !math.IsNaN(s.MeanWait()) {
		t.Fatal("empty recorder must report NaN")
	}
	s.Observe(1, 2)
	s.Observe(3, 4)
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
	if s.MeanWait() != 2 {
		t.Fatalf("MeanWait = %v, want 2", s.MeanWait())
	}
	if p50, p99 := s.Quantile(0.50), s.Quantile(0.99); p50 <= 0 || p99 < p50 {
		t.Fatalf("quantiles inconsistent: p50 %v p99 %v", p50, p99)
	}
}

// TestLatencyStatsShardMergeDeterministic proves the cross-shard
// aggregation contract: for any shard split of the same observation
// stream, the merged quantiles are bit-identical to the unsharded
// recorder's (integer bucket counts), and the ascending-order fold
// reproduces mean wait bit-identically across different shard counts.
func TestLatencyStatsShardMergeDeterministic(t *testing.T) {
	const n = 50000
	r := xrand.New(31, 0)
	waits := make([]float64, n)
	lats := make([]float64, n)
	for i := range waits {
		waits[i] = r.ExpFloat64() * 0.3
		lats[i] = waits[i] + r.ExpFloat64()
	}

	whole := NewLatencyStats()
	for i := range waits {
		whole.Observe(waits[i], lats[i])
	}

	var meanRef float64
	for _, shards := range []int{1, 2, 3, 7, 16} {
		parts := make([]*LatencyStats, shards)
		for s := range parts {
			parts[s] = NewLatencyStats()
		}
		// Round-robin split: shard s sees observations s, s+k, s+2k, …
		for i := range waits {
			parts[i%shards].Observe(waits[i], lats[i])
		}
		merged := MergeAll(parts)
		if merged.Count() != whole.Count() {
			t.Fatalf("%d shards: Count %d vs %d", shards, merged.Count(), whole.Count())
		}
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			if mq, wq := merged.Quantile(q), whole.Quantile(q); mq != wq {
				t.Fatalf("%d shards: Quantile(%v) %v vs unsharded %v", shards, q, mq, wq)
			}
		}
		// Mean wait is a float fold: for a FIXED split the ascending-order
		// MergeAll convention pins it bit for bit (checked implicitly by
		// determinism of this test), while across different shard counts
		// the partition changes rounding order, so only agreement to
		// ~machine precision is guaranteed.
		if shards == 1 {
			meanRef = merged.MeanWait()
			// One shard is literally the whole stream: exact equality with
			// the unsharded recorder is guaranteed.
			if meanRef != whole.MeanWait() {
				t.Fatalf("1 shard: MeanWait %v vs %v", meanRef, whole.MeanWait())
			}
			continue
		}
		if rel := relErr(merged.MeanWait(), meanRef); rel > 1e-12 {
			t.Fatalf("%d shards: MeanWait %v drifted from %v (rel %g)", shards, merged.MeanWait(), meanRef, rel)
		}
	}
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TestLatencyBucketsShared pins the layout contract Merge depends on.
func TestLatencyBucketsShared(t *testing.T) {
	a, b := LatencyBuckets(), LatencyBuckets()
	if len(a) != 100 {
		t.Fatalf("bucket count %d, want 100", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("LatencyBuckets not reproducible at %d", i)
		}
	}
}
