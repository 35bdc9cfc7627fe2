package metrics

import (
	"math"
	"testing"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/sim"
	"bioschedsim/internal/xrand"
)

// finishedSet fabricates n finished cloudlets with xrand-drawn timelines.
func finishedSet(n int, seed uint64) []*cloud.Cloudlet {
	r := xrand.New(seed, 0)
	out := make([]*cloud.Cloudlet, n)
	for i := range out {
		c := cloud.NewCloudlet(i+1, 1000, 1, 0, 0)
		c.SubmitTime = sim.Time(r.Float64())
		c.StartTime = c.SubmitTime + sim.Time(r.Float64()*3)
		c.FinishTime = c.StartTime + sim.Time(0.1+r.Float64()*17)
		out[i] = c
	}
	return out
}

// partitions splits cloudlets into k round-robin parts — deliberately
// non-contiguous, so the union order differs from every part order.
func partitions(cls []*cloud.Cloudlet, k int) [][]*cloud.Cloudlet {
	parts := make([][]*cloud.Cloudlet, k)
	for i, c := range cls {
		parts[i%k] = append(parts[i%k], c)
	}
	return parts
}

// TestRunStatsMatchesDirectMetrics holds the one-pass fold, and the
// Eq. 12/13 functions built on it, to the equations computed the plain
// way: separate min/max scans and an in-order sum of execution times.
func TestRunStatsMatchesDirectMetrics(t *testing.T) {
	cls := finishedSet(37, 7)
	minStart, maxFinish := cls[0].StartTime, cls[0].FinishTime
	minExec, maxExec, sumExec := cls[0].ExecTime(), cls[0].ExecTime(), 0.0
	for _, c := range cls {
		minStart, maxFinish = min(minStart, c.StartTime), max(maxFinish, c.FinishTime)
		minExec, maxExec = min(minExec, c.ExecTime()), max(maxExec, c.ExecTime())
		sumExec += c.ExecTime()
	}
	simTime, imbalance := float64(maxFinish-minStart), (maxExec-minExec)/(sumExec/37)
	s := CollectRunStats(cls)
	for name, got := range map[string]float64{"SimTime": float64(s.SimTime()), "SimulationTime": float64(SimulationTime(cls))} {
		if got != simTime {
			t.Fatalf("%s = %v, want %v", name, got, simTime)
		}
	}
	for name, got := range map[string]float64{"Imbalance": s.Imbalance(), "TimeImbalance": TimeImbalance(cls)} {
		if got != imbalance {
			t.Fatalf("%s = %v, want %v", name, got, imbalance)
		}
	}
	if s.Count != 37 {
		t.Fatalf("Count = %d", s.Count)
	}
}

func TestRunStatsMergeIdentityAndEmpty(t *testing.T) {
	var zero RunStats
	if zero.SimTime() != 0 || zero.Imbalance() != 0 {
		t.Fatal("empty aggregate not zero")
	}
	s := CollectRunStats(finishedSet(5, 1))
	if got := s.Merge(zero); got != s {
		t.Fatalf("merge with empty changed the aggregate: %+v vs %+v", got, s)
	}
	if got := zero.Merge(s); got != s {
		t.Fatalf("empty.Merge(s) != s: %+v vs %+v", got, s)
	}
}

// TestRunStatsSimTimePartitionInvariant is the Eq. 12 half of the
// determinism contract: min/max folds are exact, so the merged simulation
// time is bit-identical under every partition and fold order.
func TestRunStatsSimTimePartitionInvariant(t *testing.T) {
	cls := finishedSet(64, 42)
	want := CollectRunStats(cls).SimTime()
	for _, k := range []int{1, 2, 3, 4, 7, 64} {
		var folded RunStats
		for _, p := range partitions(cls, k) {
			folded = folded.Merge(CollectRunStats(p))
		}
		if got := folded.SimTime(); float64(got) != float64(want) {
			t.Fatalf("k=%d: folded SimTime %v != whole-set %v", k, got, want)
		}
		if folded.Count != 64 {
			t.Fatalf("k=%d: folded count %d", k, folded.Count)
		}
		// The Eq. 13 numerator is min/max too, hence exact.
		whole := CollectRunStats(cls)
		if folded.MinExec != whole.MinExec || folded.MaxExec != whole.MaxExec {
			t.Fatalf("k=%d: exec extrema moved under partition", k)
		}
	}
}

// TestMergeFinishedCanonicalOrder is the Eq. 13 half: the ID-sorted union
// is independent of the partition, so even order-sensitive float sums over
// it are bit-identical across shard layouts.
func TestMergeFinishedCanonicalOrder(t *testing.T) {
	cls := finishedSet(50, 3)
	want := TimeImbalance(MergeFinished(cls))
	for _, k := range []int{1, 2, 3, 5, 50} {
		merged := MergeFinished(partitions(cls, k)...)
		if len(merged) != len(cls) {
			t.Fatalf("k=%d: merged %d of %d", k, len(merged), len(cls))
		}
		for i := 1; i < len(merged); i++ {
			if merged[i-1].ID > merged[i].ID {
				t.Fatalf("k=%d: merge not ID-ordered at %d", k, i)
			}
		}
		if got := TimeImbalance(merged); got != want {
			t.Fatalf("k=%d: Eq.13 over merged union %v != canonical %v", k, got, want)
		}
	}
	if got := MergeFinished(); got == nil || len(got) != 0 {
		t.Fatalf("empty merge: %v", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	bounds := ExpBuckets(1, 2, 5) // 1 2 4 8 16
	a, b := NewHistogram(bounds), NewHistogram(bounds)
	for _, v := range []float64{0.5, 3, 100} {
		a.Observe(v)
	}
	for _, v := range []float64{1, 7, 9} {
		b.Observe(v)
	}
	a.Merge(b)
	snap := a.Snapshot()
	if snap.Count != 6 {
		t.Fatalf("merged count %d, want 6", snap.Count)
	}
	if want := 0.5 + 3 + 100 + 1 + 7 + 9; snap.Sum != want {
		t.Fatalf("merged sum %v, want %v", snap.Sum, want)
	}
	// Cumulative ≤8 covers 0.5, 3, 1, 7: four observations.
	if got := snap.Cumulative[3]; got != 4 {
		t.Fatalf("cumulative ≤8 = %d, want 4", got)
	}
	// b unchanged.
	if got := b.Snapshot().Count; got != 3 {
		t.Fatalf("source histogram mutated: count %d", got)
	}
}

func TestHistogramMergeRejectsLayoutMismatch(t *testing.T) {
	for name, other := range map[string]*Histogram{
		"different length": NewHistogram(ExpBuckets(1, 2, 4)),
		"different bounds": NewHistogram(ExpBuckets(2, 2, 5)),
	} {
		h := NewHistogram(ExpBuckets(1, 2, 5))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: merge did not panic", name)
				}
			}()
			h.Merge(other)
		}()
	}
}

func TestRunStatsImbalanceFinite(t *testing.T) {
	cls := finishedSet(10, 9)
	s := CollectRunStats(cls)
	if v := s.Imbalance(); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		t.Fatalf("imbalance %v", v)
	}
}
