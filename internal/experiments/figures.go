package experiments

import (
	"fmt"
	"sort"
	"sync"
)

// Experiment is one registered, regenerable paper artifact.
type Experiment struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Metric string // key for ExtractMetric
	// Run executes the sweep and returns the labeled result.
	Run func(opts Options) (*Result, error)
}

// result labels a sweep's points with e's titles.
func (e *Experiment) result(points []Point) *Result {
	return &Result{ID: e.ID, Title: e.Title, XLabel: e.XLabel, YLabel: e.YLabel, Metric: e.Metric, Points: points}
}

var (
	expMu       sync.RWMutex
	expRegistry = map[string]*Experiment{}
)

// registerExperiment adds an experiment at init time.
func registerExperiment(e *Experiment) {
	expMu.Lock()
	defer expMu.Unlock()
	if _, dup := expRegistry[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %q", e.ID))
	}
	expRegistry[e.ID] = e
}

// Lookup returns the experiment registered under id.
func Lookup(id string) (*Experiment, error) {
	expMu.RLock()
	defer expMu.RUnlock()
	e, ok := expRegistry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return e, nil
}

// IDs lists registered experiment ids in sorted order.
func IDs() []string {
	expMu.RLock()
	defer expMu.RUnlock()
	out := make([]string, 0, len(expRegistry))
	for id := range expRegistry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// figure builds a standard figure experiment around a sweep.
func figure(id, title, metric, ylabel string, run func(Options) ([]Point, error)) *Experiment {
	e := &Experiment{ID: id, Title: title, XLabel: "Number of Virtual Machines (VMs)", YLabel: ylabel, Metric: metric}
	e.Run = func(opts Options) (*Result, error) {
		points, err := run(opts)
		if err != nil {
			return nil, err
		}
		return e.result(points), nil
	}
	return e
}

func init() {
	hom4a := func(o Options) ([]Point, error) { return homogeneousSweep(Fig4aVMCounts(), o) }
	hom4b := func(o Options) ([]Point, error) { return homogeneousSweep(Fig4bVMCounts(), o) }
	het := func(o Options) ([]Point, error) { return heterogeneousSweep(Fig6VMCounts(), o) }

	registerExperiment(figure("fig4a",
		"Simulation Time of the Homogeneous Scenario (1k-9k VMs)",
		"sim_ms", "Simulation Time of Cloudlets (ms)", hom4a))
	registerExperiment(figure("fig4b",
		"Simulation Time of the Homogeneous Scenario (10k-90k VMs)",
		"sim_ms", "Simulation Time of Cloudlets (ms)", hom4b))
	registerExperiment(figure("fig5a",
		"Scheduling Time for the Homogeneous Scenario (1k-9k VMs)",
		"sched_h", "Scheduling Time of Cloudlets (Hours)", hom4a))
	registerExperiment(figure("fig5b",
		"Scheduling Time for the Homogeneous Scenario (10k-90k VMs)",
		"sched_h", "Scheduling Time of Cloudlets (Hours)", hom4b))
	registerExperiment(figure("fig6a",
		"Heterogeneous Scenario: Simulation Time",
		"sim_ms", "Simulation Time of Cloudlets (ms)", het))
	registerExperiment(figure("fig6b",
		"Heterogeneous Scenario: Scheduling Time",
		"sched_s", "Scheduling Time of Cloudlets (Seconds)", het))
	registerExperiment(figure("fig6c",
		"Heterogeneous Scenario: Degree of Time Imbalance",
		"imbalance", "Time Degree of Imbalance", het))
	registerExperiment(figure("fig6d",
		"Heterogeneous Scenario: Processing Costs",
		"cost", "Processing Cost", het))
	// fig6c-count is the companion view of Figure 6c under the paper's
	// §VI-D2 narrative ("equal number of Cloudlets"): Eq. 13's shape applied
	// to per-VM cloudlet counts instead of per-cloudlet execution times.
	// See EXPERIMENTS.md for why both views are reported.
	registerExperiment(figure("fig6c-count",
		"Heterogeneous Scenario: Degree of Count Imbalance (companion to Fig. 6c)",
		"imbalance_count", "Count Degree of Imbalance", het))
	// ext-energy reports plant-wide energy (90/250 W linear hosts) for the
	// paper's algorithms over the heterogeneous sweep: faster completion
	// means a shorter horizon of idle draw, so the Fig. 6a winners also win
	// energy — the coupling the related work [27] optimizes directly.
	registerExperiment(figure("ext-energy",
		"Heterogeneous Scenario: plant energy (linear 90/250 W hosts)",
		"energy_j", "Energy (J)", het))
	// abl-extensions compares the paper's three algorithms against the
	// related-work baselines this repo also implements (PSO, GA, hybrid,
	// plus the classical greedy family) on the heterogeneous sweep.
	registerExperiment(figure("abl-extensions",
		"Extension baselines on the Heterogeneous Scenario",
		"sim_ms", "Simulation Time of Cloudlets (ms)",
		func(o Options) ([]Point, error) {
			if len(o.Algorithms) == 0 {
				o.Algorithms = []string{"aco", "base", "hbo", "rbs", "pso", "ga", "hybrid", "greedy", "minmin", "maxmin"}
			}
			return heterogeneousSweep(Fig6VMCounts(), o)
		}))
}
