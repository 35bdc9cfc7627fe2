package metrics

import (
	"sort"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/sim"
)

// RunStats holds the partial aggregates from which Eq. 12 (simulation time)
// and Eq. 13 (degree of time imbalance) are computable over a union of
// cloudlet sets without revisiting the cloudlets — the reduction state of a
// sharded daemon, where each shard's engine finishes its own cloudlets and
// the service must report fleet-wide figures.
//
// Determinism contract: Eq. 12 and Eq. 13's numerator only involve min/max,
// which are exact under any association, so SimTime and the (MaxExec −
// MinExec) spread are bit-identical however a cloudlet set is partitioned
// and merged. SumExec is a float accumulation whose grouping follows the
// merge order, so Imbalance computed from folded RunStats is deterministic
// for a fixed shard layout (fold shards in ascending index order) but not
// guaranteed bit-identical across different shard counts; when cross-layout
// bit-identity is required — the shard-count-invariance check — compute
// Eq. 13 over MergeFinished's canonical union instead, whose summation
// order is independent of the partition.
type RunStats struct {
	Count     int
	MinStart  sim.Time
	MaxFinish sim.Time
	MinExec   float64
	MaxExec   float64
	SumExec   float64
}

// CollectRunStats aggregates one finished set through minMaxSum, the
// Eq. 12/13 reduction: min/max are seeded from the first cloudlet and SumExec
// accumulates in slice order, exactly like the historical scalar fold. The
// zero RunStats is the empty set and is the identity of Merge.
func CollectRunStats(cloudlets []*cloud.Cloudlet) RunStats {
	if len(cloudlets) == 0 {
		return RunStats{}
	}
	starts, finishes, execs := gather3(cloudlets)
	var s RunStats
	s.Count = len(cloudlets)
	s.MinStart, _, _ = minMaxSum(starts)
	_, s.MaxFinish, _ = minMaxSum(finishes)
	s.MinExec, s.MaxExec, s.SumExec = minMaxSum(execs)
	return s
}

// Merge folds o into s and returns the combined aggregate — the ordered
// shard-metric reduction. It is exact (bit-identical under any grouping)
// for every field except SumExec, whose float additions follow the fold
// order; callers wanting a canonical result fold shards in ascending index
// order. An empty side is the identity.
func (s RunStats) Merge(o RunStats) RunStats {
	if o.Count == 0 {
		return s
	}
	if s.Count == 0 {
		return o
	}
	if o.MinStart < s.MinStart {
		s.MinStart = o.MinStart
	}
	if o.MaxFinish > s.MaxFinish {
		s.MaxFinish = o.MaxFinish
	}
	if o.MinExec < s.MinExec {
		s.MinExec = o.MinExec
	}
	if o.MaxExec > s.MaxExec {
		s.MaxExec = o.MaxExec
	}
	s.SumExec += o.SumExec
	s.Count += o.Count
	return s
}

// SimTime returns Eq. 12 over the aggregated set: max finish − min start,
// 0 for the empty aggregate. Exactly SimulationTime of the underlying
// union, under any partition.
func (s RunStats) SimTime() sim.Time {
	if s.Count == 0 {
		return 0
	}
	return s.MaxFinish - s.MinStart
}

// Imbalance returns Eq. 13 over the aggregated set: (max − min) / avg of
// per-cloudlet execution times, 0 for the empty aggregate or a zero
// average. See the type comment for the SumExec grouping caveat.
func (s RunStats) Imbalance() float64 {
	if s.Count == 0 {
		return 0
	}
	avg := s.SumExec / float64(s.Count)
	if avg == 0 {
		return 0
	}
	return (s.MaxExec - s.MinExec) / avg
}

// MergeFinished merges per-shard finished sets into the canonical union:
// every cloudlet of every part, ordered by ascending cloudlet ID (ties kept
// in part order, though IDs are unique in practice). Because the order
// depends only on the union's membership — never on how it was partitioned
// or in which order shards completed — every metric computed over the
// merged slice, including order-sensitive float accumulations like
// TimeImbalance's sum, is bit-identical across shard layouts. This is the
// merge the shard-count-invariance check relies on.
func MergeFinished(parts ...[]*cloud.Cloudlet) []*cloud.Cloudlet {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]*cloud.Cloudlet, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
