package experiments

import (
	"fmt"
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/elastic"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/online"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/sim"
	"bioschedsim/internal/workload"
	"bioschedsim/internal/xrand"
)

// Extension experiments beyond the paper's figures: online (per-arrival)
// scheduling under increasing load, and SLA compliance under shrinking
// deadline slack. Both are registered like the figures, so
// `cloudsched figure ext-online` / `ext-sla` regenerate them.

// onlineSchedulers builds the per-arrival policy set for one run.
func onlineSchedulers(seed uint64) map[string]online.Scheduler {
	return map[string]online.Scheduler{
		"online-rr":      online.NewRoundRobin(),
		"online-least":   online.NewLeastLoaded(),
		"online-eft":     online.NewEarliestFinish(),
		"online-aco":     online.NewACO(xrand.New(seed, 10)),
		"online-hbo":     online.NewHBO(xrand.New(seed, 11)),
		"online-rbs":     online.NewRBS(xrand.New(seed, 12)),
		"online-2choice": online.NewTwoChoices(xrand.New(seed, 13)),
	}
}

// runOnlinePoint executes every online policy at one arrival rate.
func runOnlinePoint(rate float64, opts Options) (map[string]metrics.Report, error) {
	opts = opts.normalized()
	nVMs, nCls := ablationScenario(opts)
	reports := map[string]metrics.Report{}
	for name, policy := range onlineSchedulers(opts.Seed) {
		scn, err := workload.Heterogeneous(nVMs, nCls, 4, opts.Seed)
		if err != nil {
			return nil, err
		}
		arrivals, err := workload.PoissonArrivals(nCls, rate, opts.Seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := online.Run(scn.Env, policy, scn.Cloudlets, arrivals, cloud.TimeSharedFactory)
		if err != nil {
			return nil, fmt.Errorf("%s at rate %v: %w", name, rate, err)
		}
		rep := metrics.Collect(name, res.Finished, scn.Env.VMs, time.Since(start))
		// For online runs the headline number is mean response, surfaced
		// through the mean_exec_s channel's sibling field.
		rep.MeanExec = res.MeanResponse
		rep.MeanWait = res.MeanWait
		reports[name] = rep
	}
	return reports, nil
}

// runSLAPoint executes the batch schedulers with deadlines at one slack.
func runSLAPoint(slack float64, opts Options) (map[string]metrics.Report, error) {
	opts = opts.normalized()
	nVMs, nCls := ablationScenario(opts)
	algorithms := opts.Algorithms
	if len(algorithms) == 0 || len(algorithms) == len(PaperAlgorithms) {
		algorithms = append([]string{"deadline"}, PaperAlgorithms...)
	}
	reports := map[string]metrics.Report{}
	for _, name := range algorithms {
		scheduler, err := sched.New(name)
		if err != nil {
			return nil, err
		}
		scn, err := workload.Heterogeneous(nVMs, nCls, 4, opts.Seed)
		if err != nil {
			return nil, err
		}
		if err := workload.AssignDeadlines(scn.Cloudlets, scn.Env.VMs, slack); err != nil {
			return nil, err
		}
		ctx := scn.Context()
		start := time.Now()
		assignments, err := scheduler.Schedule(ctx)
		schedTime := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s at slack %v: %w", name, slack, err)
		}
		if err := sched.ValidateAssignments(ctx, assignments); err != nil {
			return nil, err
		}
		cls, vms := sched.Split(assignments)
		res, err := cloud.Execute(scn.Env, cloud.TimeSharedFactory, cls, vms)
		if err != nil {
			return nil, err
		}
		reports[name] = metrics.Collect(name, res.Finished, scn.Env.VMs, schedTime)
	}
	return reports, nil
}

// runElasticPoint runs a burst against a deliberately small fleet twice —
// once static, once with the threshold autoscaler at the given boot delay —
// and reports both makespans.
func runElasticPoint(bootDelay float64, opts Options) (map[string]metrics.Report, error) {
	opts = opts.normalized()
	nVMs, nCls := ablationScenario(opts)
	small := nVMs / 4
	if small < 2 {
		small = 2
	}
	runOne := func(autoscale bool) (metrics.Report, error) {
		scn, err := workload.Heterogeneous(small, nCls, 2, opts.Seed)
		if err != nil {
			return metrics.Report{}, err
		}
		eng := sim.NewEngine()
		broker := cloud.NewBroker(eng, scn.Env, cloud.TimeSharedFactory)
		if autoscale {
			as, err := elastic.New(broker, elastic.Policy{
				ScaleUpLoad:   4,
				ScaleDownLoad: 1,
				Interval:      2,
				MinVMs:        small,
				MaxVMs:        nVMs,
				Template:      elastic.VMTemplate{MIPS: 2000, PEs: 1, RAM: 512, Bw: 500, Size: 5000},
				BootDelay:     sim.Time(bootDelay),
			}, cloud.TimeSharedFactory, 100000)
			if err != nil {
				return metrics.Report{}, err
			}
			as.Start()
		}
		for i, c := range scn.Cloudlets {
			broker.Submit(c, scn.Env.VMs[i%small])
		}
		eng.Run()
		return metrics.Collect("elastic", broker.Finished(), scn.Env.VMs, 0), nil
	}
	static, err := runOne(false)
	if err != nil {
		return nil, err
	}
	static.Algorithm = "static"
	scaled, err := runOne(true)
	if err != nil {
		return nil, err
	}
	return map[string]metrics.Report{"static": static, "elastic": scaled}, nil
}

// extension sets e.Run to evaluate runPt at every x on the point pool.
func extension(e *Experiment, xs []float64, runPt func(x float64, o Options) (map[string]metrics.Report, error)) *Experiment {
	e.Run = func(opts Options) (*Result, error) {
		opts = opts.normalized()
		points, err := sweepPoints(xs, func(_ int, x float64) (map[string]metrics.Report, error) {
			return runPt(x, opts)
		})
		if err != nil {
			return nil, err
		}
		return e.result(points), nil
	}
	return e
}

func init() {
	registerExperiment(extension(&Experiment{
		ID:     "ext-online",
		Title:  "Online (per-arrival) scheduling under increasing Poisson load",
		XLabel: "Arrival rate (cloudlets/second)",
		YLabel: "Mean response time (s)",
		Metric: "mean_exec_s",
	}, []float64{1, 2, 4, 8, 16, 32}, runOnlinePoint))
	registerExperiment(extension(&Experiment{
		ID:     "ext-sla",
		Title:  "SLA compliance vs deadline slack (batch schedulers + deadline-aware)",
		XLabel: "Deadline slack (x best-case execution)",
		YLabel: "SLA compliance rate",
		Metric: "sla",
	}, []float64{2, 4, 8, 16, 32, 64}, runSLAPoint))
	registerExperiment(extension(&Experiment{
		ID:     "ext-elastic",
		Title:  "Threshold autoscaling vs instance boot delay (burst on a quarter-size fleet)",
		XLabel: "Instance boot delay (s)",
		YLabel: "Simulation Time of Cloudlets (ms)",
		Metric: "sim_ms",
	}, []float64{0, 10, 30, 60, 120}, runElasticPoint))
}
