package experiments

import (
	"fmt"

	"bioschedsim/internal/objective"
	"bioschedsim/internal/xrand"
)

// forEachPoint runs fn(i) for every i in [0, n) on a GOMAXPROCS-wide pool.
// A point is a whole simulation, so even two of them are worth fanning out.
// Each writes only its own slot, so the pool's width never changes a
// result.
func forEachPoint(n int, fn func(i int)) {
	objective.ParallelFor(objective.EffectiveWorkers(int64(n), 1), n, fn)
}

// sweep runs one pointSpec per VM count on the pool and assembles the
// ordered Points. Each point derives its seed from the root seed and its
// index, so the outcome is independent of worker interleaving.
func sweep(kind scenarioKind, vmCounts []int, cloudlets, dcs int, opts Options) ([]Point, error) {
	opts = opts.normalized()
	points := make([]Point, len(vmCounts))
	errs := make([]error, len(vmCounts))
	forEachPoint(len(vmCounts), func(i int) {
		spec := pointSpec{
			kind:       kind,
			vms:        vmCounts[i],
			cloudlets:  cloudlets,
			dcs:        dcs,
			seed:       xrand.Stream(opts.Seed, uint64(i)).Uint64(),
			algorithms: opts.Algorithms,
			repeats:    opts.Repeats,
		}
		reports, err := runPoint(spec)
		if err != nil {
			errs[i] = err
			return
		}
		points[i] = Point{X: float64(vmCounts[i]), Reports: reports}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep point %d (vms=%d): %w", i, vmCounts[i], err)
		}
	}
	return points, nil
}

// homogeneousSweep runs the paper's homogeneous scenario over the given
// paper-scale VM counts (Tables III–IV workload; 1 000 000 cloudlets).
func homogeneousSweep(paperVMCounts []int, opts Options) ([]Point, error) {
	opts = opts.normalized()
	vmCounts := make([]int, len(paperVMCounts))
	for i, v := range paperVMCounts {
		vmCounts[i] = scaleCount(v, opts.Scale, 2)
	}
	cloudlets := scaleCount(1_000_000, opts.Scale, 10)
	return sweep(homogeneous, vmCounts, cloudlets, 1, opts)
}

// heterogeneousSweep runs the paper's heterogeneous scenario over the given
// paper-scale VM counts (Tables V–VII; 5 000 cloudlets, 4 datacenters).
func heterogeneousSweep(paperVMCounts []int, opts Options) ([]Point, error) {
	opts = opts.normalized()
	vmCounts := make([]int, len(paperVMCounts))
	for i, v := range paperVMCounts {
		vmCounts[i] = scaleCount(v, opts.Scale, 2)
	}
	cloudlets := scaleCount(5_000, opts.Scale, 10)
	return sweep(heterogeneous, vmCounts, cloudlets, 4, opts)
}

// steps returns {from, from+by, ..., to} inclusive.
func steps(from, to, by int) []int {
	var out []int
	for v := from; v <= to; v += by {
		out = append(out, v)
	}
	return out
}

// Fig4aVMCounts are the paper's Figure 4a/5a x-axis values: 1 000–9 000 VMs.
func Fig4aVMCounts() []int { return steps(1000, 9000, 1000) }

// Fig4bVMCounts are the paper's Figure 4b/5b x-axis values: 10 000–90 000 VMs.
func Fig4bVMCounts() []int { return steps(10000, 90000, 20000) }

// Fig6VMCounts are the paper's Figure 6 x-axis values: 50–950 VMs.
func Fig6VMCounts() []int { return steps(50, 950, 100) }
