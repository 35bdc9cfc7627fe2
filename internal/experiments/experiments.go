// Package experiments reproduces the paper's evaluation (§VI): the
// homogeneous scenario behind Figures 4 and 5 and the heterogeneous
// scenario behind Figure 6, plus the parameter ablations DESIGN.md calls
// out. Each figure panel is a registered Experiment that sweeps VM count,
// runs every algorithm at every point, and reports the panel's metric.
//
// Sweeps run points in parallel on a bounded worker pool; every point draws
// its workload from an xrand substream of the root seed, so results are
// identical regardless of worker count or scheduling order.
package experiments

import (
	"fmt"
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/workload"
	"bioschedsim/internal/xrand"

	// Link every scheduler into the registry so experiments can look the
	// paper's algorithms (and the extension baselines) up by name.
	_ "bioschedsim/internal/aco"
	_ "bioschedsim/internal/ga"
	_ "bioschedsim/internal/hbo"
	_ "bioschedsim/internal/hybrid"
	_ "bioschedsim/internal/pso"
	_ "bioschedsim/internal/rbs"
)

// PaperAlgorithms are the four schedulers the paper compares, in its own
// presentation order.
var PaperAlgorithms = []string{"aco", "base", "hbo", "rbs"}

// Options configures a sweep run.
type Options struct {
	// Scale multiplies the paper's problem sizes (VM and cloudlet counts).
	// 1.0 reproduces the published dimensions (up to 100 000 VMs and
	// 1 000 000 cloudlets — hours of wall time, exactly as the paper
	// reports); the CLI defaults to a laptop-friendly fraction.
	Scale float64
	// Seed is the root of all randomness in the sweep.
	Seed uint64
	// Repeats averages each (point, algorithm) over this many seeded
	// repetitions; 0 means 1.
	Repeats int
	// Algorithms selects the schedulers; nil means PaperAlgorithms.
	Algorithms []string
}

// normalized fills in defaults.
func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Repeats <= 0 {
		o.Repeats = 1
	}
	if len(o.Algorithms) == 0 {
		o.Algorithms = PaperAlgorithms
	}
	return o
}

// Point is one x-axis position of a sweep with every algorithm's report.
type Point struct {
	X       float64                   // actual VM count used
	Reports map[string]metrics.Report // algorithm → averaged report
}

// Result is a completed experiment with enough labeling to print the
// paper's figure.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Metric string // metric key, see (Result).Extract
	Points []Point
}

// Series returns (x, y) vectors for one algorithm under the result's
// metric, for plotting and trend assertions.
func (r *Result) Series(algorithm string) (xs, ys []float64) {
	for _, p := range r.Points {
		rep, ok := p.Reports[algorithm]
		if !ok {
			continue
		}
		xs = append(xs, p.X)
		ys = append(ys, ExtractMetric(rep, r.Metric))
	}
	return xs, ys
}

// ExtractMetric maps a metric key to its value in a report. Keys:
// sim_ms (Figs. 4, 6a), sched_h (Fig. 5), sched_s (Fig. 6b),
// imbalance (Fig. 6c), cost (Fig. 6d), fairness, mean_exec_s, mean_wait_s.
func ExtractMetric(rep metrics.Report, key string) float64 {
	switch key {
	case "sim_ms":
		return rep.SimTimeMillis()
	case "sched_h":
		return rep.SchedulingHours()
	case "sched_s":
		return rep.SchedulingSeconds()
	case "imbalance":
		return rep.Imbalance
	case "imbalance_count":
		return rep.CountImbalance
	case "cost":
		return rep.Cost
	case "fairness":
		return rep.Fairness
	case "sla":
		return rep.SLACompliance
	case "energy_j":
		return rep.EnergyJoules
	case "mean_exec_s":
		return float64(rep.MeanExec)
	case "mean_wait_s":
		return float64(rep.MeanWait)
	default:
		panic(fmt.Sprintf("experiments: unknown metric key %q", key))
	}
}

// MetricKeys lists the keys ExtractMetric accepts.
func MetricKeys() []string {
	return []string{"sim_ms", "sched_h", "sched_s", "imbalance", "imbalance_count", "cost", "fairness", "sla", "energy_j", "mean_exec_s", "mean_wait_s"}
}

// scenarioKind selects the workload family for runPoint.
type scenarioKind int

const (
	homogeneous scenarioKind = iota
	heterogeneous
)

// pointSpec is one unit of sweep work.
type pointSpec struct {
	kind       scenarioKind
	vms        int
	cloudlets  int
	dcs        int
	seed       uint64
	algorithms []string
	repeats    int
}

// runPoint executes every algorithm at one sweep point and returns the
// averaged reports keyed by algorithm name.
func runPoint(spec pointSpec) (map[string]metrics.Report, error) {
	reports := make(map[string]metrics.Report, len(spec.algorithms))
	for _, name := range spec.algorithms {
		scheduler, err := sched.New(name)
		if err != nil {
			return nil, err
		}
		var acc accumulator
		for rep := 0; rep < spec.repeats; rep++ {
			seed := xrand.Stream(spec.seed, uint64(rep)).Uint64()
			report, err := runOnce(scheduler, spec, seed)
			if err != nil {
				return nil, fmt.Errorf("%s at vms=%d: %w", name, spec.vms, err)
			}
			acc.add(report)
		}
		reports[name] = acc.mean(name)
	}
	return reports, nil
}

// runOnce materializes the scenario, schedules (timing the call), executes,
// and collects the paper's metrics.
func runOnce(scheduler sched.Scheduler, spec pointSpec, seed uint64) (metrics.Report, error) {
	var (
		scn *workload.Scenario
		err error
	)
	switch spec.kind {
	case homogeneous:
		scn, err = workload.Homogeneous(spec.vms, spec.cloudlets, seed)
	case heterogeneous:
		scn, err = workload.Heterogeneous(spec.vms, spec.cloudlets, spec.dcs, seed)
	default:
		err = fmt.Errorf("experiments: unknown scenario kind %d", spec.kind)
	}
	if err != nil {
		return metrics.Report{}, err
	}
	ctx := scn.Context()

	start := time.Now()
	assignments, err := scheduler.Schedule(ctx)
	schedTime := time.Since(start)
	if err != nil {
		return metrics.Report{}, err
	}
	if err := sched.ValidateAssignments(ctx, assignments); err != nil {
		return metrics.Report{}, fmt.Errorf("invalid schedule: %w", err)
	}
	cls, vms := sched.Split(assignments)
	res, err := cloud.Execute(scn.Env, cloud.TimeSharedFactory, cls, vms)
	if err != nil {
		return metrics.Report{}, err
	}
	report := metrics.Collect(scheduler.Name(), res.Finished, scn.Env.VMs, schedTime)
	// Energy accounting under the default server power model; near-free to
	// compute and it powers the ext-energy experiment.
	if energy, err := cloud.HostEnergy(scn.Env, res.Finished, defaultPowerModel); err == nil {
		report.EnergyJoules = energy.TotalJoules
	}
	return report, nil
}

// defaultPowerModel is the 90 W idle / 250 W loaded linear server used for
// plant-wide energy accounting.
var defaultPowerModel = cloud.LinearPower{Idle: 90, Max: 250}

// accumulator averages reports across repeats.
type accumulator struct {
	n         int
	schedTime time.Duration
	simTime   float64
	imbalance float64
	countImb  float64
	cost      float64
	fairness  float64
	sla       float64
	energy    float64
	meanExec  float64
	meanWait  float64
	cloudlets int
	vms       int
}

func (a *accumulator) add(r metrics.Report) {
	a.n++
	a.schedTime += r.SchedulingTime
	a.simTime += r.SimTime
	a.imbalance += r.Imbalance
	a.countImb += r.CountImbalance
	a.cost += r.Cost
	a.fairness += r.Fairness
	a.sla += r.SLACompliance
	a.energy += r.EnergyJoules
	a.meanExec += float64(r.MeanExec)
	a.meanWait += float64(r.MeanWait)
	a.cloudlets = r.Cloudlets
	a.vms = r.VMs
}

func (a *accumulator) mean(algorithm string) metrics.Report {
	if a.n == 0 {
		return metrics.Report{Algorithm: algorithm}
	}
	n := float64(a.n)
	return metrics.Report{
		Algorithm:      algorithm,
		Cloudlets:      a.cloudlets,
		VMs:            a.vms,
		SchedulingTime: a.schedTime / time.Duration(a.n),
		SimTime:        a.simTime / n,
		Imbalance:      a.imbalance / n,
		CountImbalance: a.countImb / n,
		Cost:           a.cost / n,
		Fairness:       a.fairness / n,
		SLACompliance:  a.sla / n,
		EnergyJoules:   a.energy / n,
		MeanExec:       a.meanExec / n,
		MeanWait:       a.meanWait / n,
	}
}

// scaleCount scales a paper problem size, flooring at min.
func scaleCount(paper int, scale float64, min int) int {
	n := int(float64(paper) * scale)
	if n < min {
		n = min
	}
	return n
}
