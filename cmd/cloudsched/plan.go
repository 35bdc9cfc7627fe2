package main

import (
	"flag"
	"fmt"

	"bioschedsim/internal/plan"
)

// cmdPlan dispatches the capacity-planning subcommands: a verdict run over
// a spec file, an exact replay of one measured probe, and one
// qmodel-differential oracle case (the command internal/plan's
// differential failures print as their replay line).
func cmdPlan(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "replay":
			return cmdPlanReplay(args[1:])
		case "oracle":
			return cmdPlanOracle(args[1:])
		}
	}
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	specPath := fs.String("spec", "", "experiment spec file (JSON; see EXPERIMENTS.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("plan: -spec is required")
	}
	spec, err := plan.ReadSpec(*specPath)
	if err != nil {
		return err
	}
	v, err := plan.Plan(spec, nil)
	if err != nil {
		return err
	}
	fmt.Printf("# plan %s: %s arrivals, %d cloudlets (%d warmup), SLO p%g ≤ %g s, seed %d\n",
		spec.Name, spec.Workload.Process, spec.Workload.Cloudlets, spec.Workload.Warmup,
		spec.SLO.Quantile*100, spec.SLO.TargetSeconds, spec.Seed)
	fmt.Printf("%8s %8s %10s %12s %12s %6s\n", "fleet", "peak", "count", "mean-wait", "slo-latency", "met")
	for _, p := range v.Probes {
		fmt.Printf("%8d %8d %10d %12.4f %12.4f %6s\n",
			p.Fleet, p.PeakFleet, p.Count, p.MeanWait, p.QuantileValue, yesNo(p.Met))
	}
	switch {
	case v.Elastic && v.Sustainable:
		p := v.Probes[0]
		fmt.Printf("verdict: SUSTAINABLE — autoscaler held the SLO from %d VMs, peaking at %d (%d scale-ups, %d scale-downs)\n",
			spec.Fleet.MinVMs, v.MinFleet, p.ScaleUps, p.ScaleDowns)
	case v.Sustainable:
		fmt.Printf("verdict: SUSTAINABLE — smallest fleet meeting the SLO is %d VMs\n", v.MinFleet)
	default:
		fmt.Printf("verdict: NOT SUSTAINABLE within fleet bounds [%d, %d]\n",
			spec.Fleet.MinVMs, spec.Fleet.MaxVMs)
	}
	fleet := v.MinFleet
	if fleet == 0 {
		fleet = spec.Fleet.MaxVMs
	}
	if v.Elastic {
		fleet = spec.Fleet.MinVMs
	}
	fmt.Printf("replay: %s\n", plan.ReplayCommand(*specPath, spec.Seed, fleet))
	return nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// cmdPlanReplay re-runs one measured probe exactly: same spec, seed, and
// fleet size reproduce the same distribution bit for bit (the line `plan`
// prints).
func cmdPlanReplay(args []string) error {
	fs := flag.NewFlagSet("plan replay", flag.ExitOnError)
	specPath := fs.String("spec", "", "experiment spec file (JSON)")
	seed := fs.Uint64("seed", 0, "override the spec's seed")
	fleet := fs.Int("fleet", 0, "fleet size (static specs; default min_vms)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("plan replay: -spec is required")
	}
	spec, err := plan.ReadSpec(*specPath)
	if err != nil {
		return err
	}
	seedSet, fleetSet := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			seedSet = true
		case "fleet":
			fleetSet = true
		}
	})
	if seedSet {
		spec.Seed = *seed
	}
	size := spec.Fleet.MinVMs
	if fleetSet {
		size = *fleet
	}
	res, err := plan.Run(spec, size, nil)
	if err != nil {
		return err
	}
	rec := res.Recorder
	fmt.Printf("# plan replay %s: fleet %d, seed %d\n", spec.Name, size, spec.Seed)
	fmt.Printf("count            %10d\n", rec.Count())
	fmt.Printf("mean wait        %10.4f s\n", rec.MeanWait())
	fmt.Printf("latency p50      %10.4f s\n", rec.Quantile(0.50))
	fmt.Printf("latency p95      %10.4f s\n", rec.Quantile(0.95))
	fmt.Printf("latency p99      %10.4f s\n", rec.Quantile(0.99))
	fmt.Printf("slo p%g ≤ %g s   %s\n", spec.SLO.Quantile*100, spec.SLO.TargetSeconds, yesNo(res.SLOMet(spec)))
	if spec.Elastic != nil {
		fmt.Printf("peak fleet       %10d (%d scale-ups, %d scale-downs)\n",
			res.PeakFleet, res.ScaleUps, res.ScaleDowns)
	}
	return nil
}

// cmdPlanOracle runs one qmodel differential: the simulated mean queue
// wait of a homogeneous fleet under queue dispatch against the analytic
// M/M/1 or M/M/c Wq. It exits non-zero when the differential lands outside
// the band, so the replay lines printed by `schedcheck` / internal/check
// reproduce the violation with the same exit semantics.
func cmdPlanOracle(args []string) error {
	fs := flag.NewFlagSet("plan oracle", flag.ExitOnError)
	rho := fs.Float64("rho", 0.6, "offered load λ/(c·μ), in (0, 1)")
	servers := fs.Int("servers", 1, "service channels c (PEs across the fleet)")
	vms := fs.Int("vms", 1, "VM count (servers/vms PEs each)")
	n := fs.Int("n", 20000, "arrivals to simulate")
	warmup := fs.Int("warmup", 2000, "leading arrivals excluded from statistics")
	mu := fs.Float64("mu", 1, "per-channel service rate, cloudlets/s")
	seed := fs.Uint64("seed", 1, "root random seed")
	tol := fs.Float64("tol", 0.10, "relative-error band")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := plan.OracleCase{
		Rho: *rho, Servers: *servers, VMs: *vms, N: *n, Warmup: *warmup,
		Mu: *mu, Seed: *seed, Tol: *tol,
	}
	res, err := c.RunOracle(nil)
	if err != nil {
		return err
	}
	model := "M/M/1"
	if c.Servers > 1 {
		model = fmt.Sprintf("M/M/%d", c.Servers)
	}
	fmt.Printf("# oracle rho=%g servers=%d vms=%d n=%d warmup=%d mu=%g seed=%d\n",
		c.Rho, c.Servers, c.VMs, c.N, c.Warmup, c.Mu, c.Seed)
	fmt.Printf("simulated mean wait %10.4f s  (%d/%d samples)\n",
		res.SimMeanWait, res.Count, c.N-c.Warmup)
	fmt.Printf("analytic %s Wq   %10.4f s\n", model, res.TheoryWait)
	fmt.Printf("relative error      %10.4f    (band %g)\n", res.RelErr, c.Tol)
	if !res.Pass(c) {
		return fmt.Errorf("plan oracle: differential FAILED at rho=%g c=%d (rel err %.4f, band %g, %d/%d samples)",
			c.Rho, c.Servers, res.RelErr, c.Tol, res.Count, c.N-c.Warmup)
	}
	fmt.Println("PASS")
	return nil
}
