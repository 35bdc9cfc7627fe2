package experiments

import (
	"fmt"

	"bioschedsim/internal/aco"
	"bioschedsim/internal/ga"
	"bioschedsim/internal/hbo"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/pso"
	"bioschedsim/internal/rbs"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/xrand"
)

// Ablation experiments: instead of sweeping VM count, these sweep one
// design parameter on a fixed heterogeneous scenario (the paper's Tables
// V–VII sizes, scaled by Options.Scale) and report how the paper's metrics
// respond. DESIGN.md's "Ablations" table indexes them.

// ablationScenario fixes the problem size for parameter sweeps: the paper's
// heterogeneous midpoint of 500 VMs and 5 000 cloudlets, scaled.
func ablationScenario(opts Options) (vms, cloudlets int) {
	opts = opts.normalized()
	return scaleCount(500, opts.Scale, 2), scaleCount(5000, opts.Scale, 10)
}

// ablation builds an Experiment that runs build(x) for every x on the
// fixed ablation scenario, one Point per x keyed by label.
func ablation(id, title, xlabel, metric, ylabel, label string, xs []float64, build func(x float64) sched.Scheduler) *Experiment {
	e := &Experiment{ID: id, Title: title, XLabel: xlabel, YLabel: ylabel, Metric: metric}
	e.Run = func(opts Options) (*Result, error) {
		opts = opts.normalized()
		nVMs, nCls := ablationScenario(opts)
		points, err := sweepPoints(xs, func(_ int, x float64) (map[string]metrics.Report, error) {
			scheduler := build(x)
			var acc accumulator
			for rep := 0; rep < opts.Repeats; rep++ {
				// Unlike figure sweeps, every x shares the same workload
				// seed: only the parameter under study varies.
				seed := xrand.Stream(opts.Seed, uint64(rep)).Uint64()
				report, err := runOnce(scheduler, pointSpec{
					kind: heterogeneous, vms: nVMs, cloudlets: nCls, dcs: 4,
				}, seed)
				if err != nil {
					return nil, fmt.Errorf("%s x=%v: %w", label, x, err)
				}
				acc.add(report)
			}
			return map[string]metrics.Report{label: acc.mean(label)}, nil
		})
		if err != nil {
			return nil, err
		}
		return e.result(points), nil
	}
	return e
}

func init() {
	registerExperiment(ablation("abl-aco-iters",
		"ACO sensitivity: iterations vs simulation time (Table II context)",
		"maxIterations", "sim_ms", "Simulation Time of Cloudlets (ms)", "aco",
		[]float64{1, 2, 5, 10, 20, 40},
		func(x float64) sched.Scheduler {
			cfg := aco.DefaultConfig()
			cfg.Iterations = int(x)
			return aco.New(cfg)
		}))
	registerExperiment(ablation("abl-aco-ants",
		"ACO sensitivity: colony size vs simulation time (Table II: 50)",
		"Ants", "sim_ms", "Simulation Time of Cloudlets (ms)", "aco",
		[]float64{5, 10, 25, 50, 100},
		func(x float64) sched.Scheduler {
			cfg := aco.DefaultConfig()
			cfg.Ants = int(x)
			return aco.New(cfg)
		}))
	registerExperiment(ablation("abl-aco-beta",
		"ACO sensitivity: heuristic weight β vs simulation time (Table II: 0.99)",
		"Beta (with Alpha = 1-Beta)", "sim_ms", "Simulation Time of Cloudlets (ms)", "aco",
		[]float64{0.01, 0.25, 0.5, 0.75, 0.99},
		func(x float64) sched.Scheduler {
			cfg := aco.DefaultConfig()
			cfg.Beta = x
			cfg.Alpha = 1 - x
			return aco.New(cfg)
		}))
	registerExperiment(ablation("abl-hbo-faclb",
		"HBO sensitivity: load-balance factor vs processing cost",
		"facLB (x fair share)", "cost", "Processing Cost", "hbo",
		[]float64{0.5, 1, 1.5, 2, 3, 5},
		func(x float64) sched.Scheduler {
			// FacLB is absolute cloudlets-per-VM; express x in fair shares of
			// the ablation scenario so the sweep is size-independent.
			return &facLBScaled{mult: x}
		}))
	registerExperiment(ablation("abl-ga-generations",
		"GA sensitivity: generations vs simulation time (the §II convergence-cost critique [17])",
		"Generations", "sim_ms", "Simulation Time of Cloudlets (ms)", "ga",
		[]float64{1, 5, 20, 60, 120},
		func(x float64) sched.Scheduler {
			cfg := ga.DefaultConfig()
			cfg.Generations = int(x)
			return ga.New(cfg)
		}))
	registerExperiment(ablation("abl-pso-objective",
		"PSO sensitivity: optimization objective vs processing cost (0=makespan, 1=cost, 2=combined)",
		"Objective (0=makespan, 1=cost, 2=combined)", "cost", "Processing Cost", "pso",
		[]float64{0, 1, 2},
		func(x float64) sched.Scheduler {
			cfg := pso.DefaultConfig()
			cfg.Objective = pso.Objective(int(x))
			return pso.New(cfg)
		}))
	registerExperiment(ablation("abl-rbs-groups",
		"RBS sensitivity: group count vs simulation time",
		"Groups (q)", "sim_ms", "Simulation Time of Cloudlets (ms)", "rbs",
		[]float64{1, 2, 4, 8, 16},
		func(x float64) sched.Scheduler {
			return rbs.New(rbs.Config{Groups: int(x)})
		}))
}

// facLBScaled wraps HBO so the configured facLB multiplier is resolved
// against each batch's fair share at schedule time.
type facLBScaled struct {
	mult float64
}

// Name implements sched.Scheduler.
func (*facLBScaled) Name() string { return "hbo" }

// Schedule implements sched.Scheduler.
func (f *facLBScaled) Schedule(ctx *sched.Context) ([]sched.Assignment, error) {
	fair := float64(len(ctx.Cloudlets)) / float64(len(ctx.VMs))
	if fair < 1 {
		fair = 1
	}
	return hbo.New(hbo.Config{Groups: 2, FacLB: f.mult * fair}).Schedule(ctx)
}
