package experiments

import (
	"fmt"

	"bioschedsim/internal/metrics"
	"bioschedsim/internal/objective"
	"bioschedsim/internal/xrand"
)

// sweepPoints evaluates run at every x on a GOMAXPROCS-wide pool and
// returns the Points in x order. A point is a whole simulation, so even two
// of them are worth fanning out. Each point writes only its own slot and
// draws only from seeds fixed by its inputs, so the pool's width never
// changes a result. The error is that of the lowest-indexed failing point.
func sweepPoints(xs []float64, run func(i int, x float64) (map[string]metrics.Report, error)) ([]Point, error) {
	points := make([]Point, len(xs))
	errs := make([]error, len(xs))
	objective.ParallelFor(objective.EffectiveWorkers(int64(len(xs)), 1), len(xs), func(i int) {
		points[i].X = xs[i]
		points[i].Reports, errs[i] = run(i, xs[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// sweep runs kind's scenario at every paper-scale VM count, with
// paperCloudlets cloudlets over dcs datacenters, both scaled by
// opts.Scale. Each point derives its seed from the root seed and its index.
func sweep(kind scenarioKind, paperVMCounts []int, paperCloudlets, dcs int, opts Options) ([]Point, error) {
	opts = opts.normalized()
	xs := make([]float64, len(paperVMCounts))
	for i, v := range paperVMCounts {
		xs[i] = float64(scaleCount(v, opts.Scale, 2))
	}
	cloudlets := scaleCount(paperCloudlets, opts.Scale, 10)
	return sweepPoints(xs, func(i int, x float64) (map[string]metrics.Report, error) {
		reports, err := runPoint(pointSpec{
			kind:       kind,
			vms:        int(x),
			cloudlets:  cloudlets,
			dcs:        dcs,
			seed:       xrand.Stream(opts.Seed, uint64(i)).Uint64(),
			algorithms: opts.Algorithms,
			repeats:    opts.Repeats,
		})
		if err != nil {
			return nil, fmt.Errorf("sweep point %d (vms=%d): %w", i, int(x), err)
		}
		return reports, nil
	})
}

// homogeneousSweep runs the paper's homogeneous scenario over the given
// paper-scale VM counts (Tables III–IV workload; 1 000 000 cloudlets).
func homogeneousSweep(paperVMCounts []int, opts Options) ([]Point, error) {
	return sweep(homogeneous, paperVMCounts, 1_000_000, 1, opts)
}

// heterogeneousSweep runs the paper's heterogeneous scenario over the given
// paper-scale VM counts (Tables V–VII; 5 000 cloudlets, 4 datacenters).
func heterogeneousSweep(paperVMCounts []int, opts Options) ([]Point, error) {
	return sweep(heterogeneous, paperVMCounts, 5_000, 4, opts)
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
