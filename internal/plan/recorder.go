package plan

import (
	"bioschedsim/internal/metrics"
)

// Recorder collects per-cloudlet wait (arrival → execution start) and
// latency (arrival → completion) samples during a run. The engine feeds it
// every post-warmup completion; the verdict reads quantiles back out. It is
// an interface so the package's tests can plant a broken recorder
// (dropping samples) and prove the qmodel differential catches it.
type Recorder interface {
	// Observe records one completed cloudlet.
	Observe(wait, latency float64)
	// Count returns how many observations were recorded.
	Count() uint64
	// MeanWait returns the mean recorded wait, NaN when empty.
	MeanWait() float64
	// Quantile estimates the q-quantile of the latency distribution,
	// NaN when empty.
	Quantile(q float64) float64
}

// LatencyBuckets is the bucket layout shared by every LatencyStats: 100
// exponential bounds from 1 ms growing 15% per bucket (≈ 1.2 ks ceiling).
// The 1.15 factor bounds quantile interpolation error at ~7% of the value,
// well under the oracle tolerance bands; a shared static layout is what
// makes cross-shard merges legal.
func LatencyBuckets() []float64 {
	return metrics.ExpBuckets(1e-3, 1.15, 100)
}

// LatencyStats is the default Recorder: a latency histogram plus an exact
// running sum for mean wait. It takes no lock: a run observes from its own
// goroutine, and shard recorders merge only after their runs have joined.
type LatencyStats struct {
	hist    metrics.HistogramCore
	count   uint64
	waitSum float64
}

// NewLatencyStats returns an empty recorder over LatencyBuckets.
func NewLatencyStats() *LatencyStats {
	return &LatencyStats{hist: metrics.MakeHistogramCore(LatencyBuckets())}
}

// Observe implements Recorder.
func (s *LatencyStats) Observe(wait, latency float64) {
	s.hist.Observe(latency)
	s.count++
	s.waitSum += wait
}

// Count implements Recorder.
func (s *LatencyStats) Count() uint64 { return s.count }

// MeanWait implements Recorder.
func (s *LatencyStats) MeanWait() float64 { return s.waitSum / float64(s.count) }

// Quantile implements Recorder.
func (s *LatencyStats) Quantile(q float64) float64 { return s.hist.Quantile(q) }

// Merge folds o into s: bucket counts, observation counts, and sums all
// add. Quantiles are bit-identical under any shard split because bucket
// counts are integers; the float sum is order-dependent, so deterministic
// cross-shard aggregation folds shards in ascending shard-index order
// (MergeAll) — same convention as the daemon's Eq. 12/13 metric merge.
func (s *LatencyStats) Merge(o *LatencyStats) {
	s.hist.Merge(&o.hist)
	s.count += o.count
	s.waitSum += o.waitSum
}

// MergeAll merges per-shard recorders into one in ascending index order,
// the canonical deterministic fold.
func MergeAll(shards []*LatencyStats) *LatencyStats {
	out := NewLatencyStats()
	for _, sh := range shards {
		out.Merge(sh)
	}
	return out
}
