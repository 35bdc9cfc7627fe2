// Command cloudsched regenerates the paper's tables and figures and runs
// ad-hoc scheduling comparisons on the built-in cloud simulator.
//
// Usage:
//
//	cloudsched list                          # experiments and schedulers
//	cloudsched figure <id> [flags]           # regenerate a figure/ablation
//	cloudsched run [flags]                   # one scenario, full metrics
//	cloudsched params <topic>                # echo the paper's tables
//
// Every run is deterministic for a given -seed; parallelism never changes
// results. The default -scale keeps each figure under a minute on a laptop;
// -scale 1.0 reproduces the paper's full (hours-long) dimensions.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/experiments"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/report"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "figure":
		err = cmdFigure(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "params":
		err = cmdParams(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "gentrace":
		err = cmdGenTrace(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cloudsched: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cloudsched:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `cloudsched — bio-inspired cloud scheduling testbed (IPDPSW'16 reproduction)

Commands:
  list                     list experiments and registered schedulers
  figure <id> [flags]      regenerate a paper figure or ablation
      -scale F   problem-size multiplier (default: per-figure laptop scale)
      -seed N    root random seed (default 42)
      -repeats N repetitions averaged per point (default 1)
      -algs CSV  comma-separated scheduler subset (default: paper's four)
      -metric K  override the metric view (see 'list')
      -csv PATH  also write the series as CSV
      -chart     render an ASCII chart after the table
  run [flags]              run one scenario and print full metric reports
      -scenario S     homogeneous | heterogeneous (default heterogeneous)
      -vms N          fleet size (default 50)
      -cloudlets N    batch size (default 1000)
      -dcs N          datacenters, heterogeneous only (default 4)
      -algs CSV       schedulers to compare (default: paper's four)
      -seed N         root random seed (default 42)
  params <topic>           echo the paper's parameter tables
      topics: aco (Table II), hbo (Table I), rbs,
              homogeneous (Tables III-IV), heterogeneous (Tables V-VII)
  compare <id> [flags]     statistically compare two algorithms on an
                           experiment across seed replications (Welch's t)
      -a / -b ALG     the two algorithms (default aco vs base)
      -runs N         seed replications (default 8)
      -scale F        problem-size multiplier (default: per-figure)
      -seed N         root seed (default 42)
  gentrace [flags]         write a synthetic workload trace (CSV, or the
                           columnar binary format with -columnar)
      -n N -rate R -out PATH -deadline-slack S -columnar -compress
      -process poisson|mmpp|diurnal   arrival process (mmpp: -rate-a -rate-b
      -sojourn-a -sojourn-b; diurnal: -amplitude -period, rate from -rate)
  plan -spec PATH          capacity verdict: search for the smallest
                           fleet that sustains the spec's workload within
                           its latency SLO (elastic specs: one autoscaled
                           run from min_vms)
  plan replay -spec PATH -seed N [-fleet K]
                           re-run one measured probe exactly
  plan oracle [flags]      one qmodel differential: simulated mean wait vs
                           the analytic M/M/1 / M/M/c Wq (exits non-zero
                           outside the band)
      -rho F -servers N -vms N -n N -warmup N -mu F -seed N -tol F
  trace convert [flags]    convert a trace between CSV and the columnar
                           binary format (direction sniffed from -in)
      -in PATH -out PATH -block-rows N -compress
  replay -trace PATH       replay a trace (CSV or columnar, sniffed by
                           magic bytes) through an online policy
      -policy P       online-rr|least|eft|aco|hbo|rbs (default online-eft)
      -vms N -dcs N -seed N
`)
}

func cmdList() error {
	fmt.Println("Experiments (cloudsched figure <id>):")
	for _, id := range experiments.IDs() {
		exp, err := experiments.Lookup(id)
		if err != nil {
			return err
		}
		fmt.Printf("  %-16s %s\n", id, exp.Title)
	}
	fmt.Println("\nSchedulers (-algs):")
	fmt.Printf("  %s\n", strings.Join(sched.Names(), ", "))
	fmt.Println("\nMetric views (-metric):")
	fmt.Printf("  %s\n", strings.Join(experiments.MetricKeys(), ", "))
	return nil
}

// defaultScale keeps each figure tractable interactively. The homogeneous
// scenarios are 1M cloudlets at paper scale, so they get a smaller default.
func defaultScale(id string) float64 {
	if strings.HasPrefix(id, "fig4") || strings.HasPrefix(id, "fig5") {
		return 0.002
	}
	return 0.1
}

func cmdFigure(args []string) error {
	fs := flag.NewFlagSet("figure", flag.ExitOnError)
	scale := fs.Float64("scale", 0, "problem-size multiplier (0 = per-figure default)")
	seed := fs.Uint64("seed", 42, "root random seed")
	repeats := fs.Int("repeats", 1, "repetitions averaged per point")
	algs := fs.String("algs", "", "comma-separated scheduler subset")
	metric := fs.String("metric", "", "metric view override")
	csvPath := fs.String("csv", "", "write series as CSV to this path")
	chart := fs.Bool("chart", false, "render an ASCII chart")
	markdown := fs.Bool("markdown", false, "emit a Markdown table instead of the aligned text table")
	svgPath := fs.String("svg", "", "also write an SVG chart to this path")
	// Accept both "figure fig6a -chart" and "figure -chart fig6a".
	var id string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if id == "" && fs.NArg() == 1 {
		id = fs.Arg(0)
	} else if id == "" || fs.NArg() > 0 {
		return fmt.Errorf("figure: exactly one experiment id expected (see 'cloudsched list')")
	}
	exp, err := experiments.Lookup(id)
	if err != nil {
		return err
	}
	opts := experiments.Options{Scale: *scale, Seed: *seed, Repeats: *repeats}
	if opts.Scale == 0 {
		opts.Scale = defaultScale(id)
	}
	if *algs != "" {
		opts.Algorithms = strings.Split(*algs, ",")
	}
	start := time.Now()
	res, err := exp.Run(opts)
	if err != nil {
		return err
	}
	if *metric != "" {
		res.Metric = *metric
		res.YLabel = *metric
	}
	fmt.Printf("# experiment %s  scale=%g seed=%d repeats=%d  (%.1fs wall)\n",
		id, opts.Scale, opts.Seed, *repeats, time.Since(start).Seconds())
	if *markdown {
		if err := report.WriteMarkdown(os.Stdout, res); err != nil {
			return err
		}
	} else if err := report.WriteTable(os.Stdout, res); err != nil {
		return err
	}
	if *chart {
		fmt.Println()
		fmt.Print(report.Chart(res, 72, 20))
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := report.WriteCSV(f, res); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := report.WriteSVG(f, res, 720, 480); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *svgPath)
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	algA := fs.String("a", "aco", "first algorithm")
	algB := fs.String("b", "base", "second algorithm")
	runs := fs.Int("runs", 8, "seed replications")
	scale := fs.Float64("scale", 0, "problem-size multiplier (0 = per-figure default)")
	seed := fs.Uint64("seed", 42, "root random seed")
	var id string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if id == "" && fs.NArg() == 1 {
		id = fs.Arg(0)
	} else if id == "" || fs.NArg() > 0 {
		return fmt.Errorf("compare: exactly one experiment id expected")
	}
	exp, err := experiments.Lookup(id)
	if err != nil {
		return err
	}
	opts := experiments.Options{Scale: *scale, Seed: *seed}
	if opts.Scale == 0 {
		opts.Scale = defaultScale(id)
	}
	cmp, err := experiments.Compare(exp, *algA, *algB, opts, *runs)
	if err != nil {
		return err
	}
	fmt.Printf("# %s: %s vs %s over %d seed replications (metric %s, lower is better)\n",
		cmp.ExperimentID, cmp.AlgA, cmp.AlgB, cmp.Runs, cmp.Metric)
	fmt.Printf("%12s %14s %14s %10s %8s\n", "x", cmp.AlgA, cmp.AlgB, "welch-t", "winner")
	for i := range cmp.X {
		fmt.Printf("%12g %14.4f %14.4f %10.2f %8s\n",
			cmp.X[i], cmp.MeanA[i], cmp.MeanB[i], cmp.TStat[i], cmp.Winner[i])
	}
	fmt.Printf("overall winner: %s\n", cmp.Overall)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	scenario := fs.String("scenario", "heterogeneous", "homogeneous | heterogeneous")
	vms := fs.Int("vms", 50, "fleet size")
	cloudlets := fs.Int("cloudlets", 1000, "batch size")
	dcs := fs.Int("dcs", 4, "datacenters (heterogeneous only)")
	algs := fs.String("algs", "aco,base,hbo,rbs", "schedulers to compare")
	seed := fs.Uint64("seed", 42, "root random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := strings.Split(*algs, ",")
	fmt.Printf("# scenario=%s vms=%d cloudlets=%d seed=%d\n", *scenario, *vms, *cloudlets, *seed)
	fmt.Printf("%-12s %14s %14s %12s %12s %14s %10s\n",
		"algorithm", "sched-time", "sim-time(ms)", "imbalance", "count-imb", "cost", "fairness")
	for _, name := range names {
		scheduler, err := sched.New(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		rep, err := runScenario(scheduler, *scenario, *vms, *cloudlets, *dcs, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("%-12s %14v %14.3f %12.3f %12.3f %14.2f %10.3f\n",
			rep.Algorithm, rep.SchedulingTime.Round(time.Microsecond), rep.SimTimeMillis(),
			rep.Imbalance, rep.CountImbalance, rep.Cost, rep.Fairness)
	}
	return nil
}

func runScenario(scheduler sched.Scheduler, scenario string, vms, cloudlets, dcs int, seed uint64) (metrics.Report, error) {
	var (
		scn *workload.Scenario
		err error
	)
	switch scenario {
	case "homogeneous":
		scn, err = workload.Homogeneous(vms, cloudlets, seed)
	case "heterogeneous":
		scn, err = workload.Heterogeneous(vms, cloudlets, dcs, seed)
	default:
		err = fmt.Errorf("unknown scenario %q", scenario)
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
		return metrics.Report{}, err
	}
	cls, vmList := sched.Split(assignments)
	res, err := cloud.Execute(scn.Env, cloud.TimeSharedFactory, cls, vmList)
	if err != nil {
		return metrics.Report{}, err
	}
	return metrics.Collect(scheduler.Name(), res.Finished, scn.Env.VMs, schedTime), nil
}

func cmdParams(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("params: one topic expected (aco, hbo, rbs, homogeneous, heterogeneous)")
	}
	switch args[0] {
	case "aco":
		fmt.Println("Table II — ACO parameters:")
		fmt.Println("  Ants        50")
		fmt.Println("  Alpha       0.01")
		fmt.Println("  Beta        0.99")
		fmt.Println("  Rho         0.4")
		fmt.Println("  Q           100")
		fmt.Println("  Iterations  20      (maxIterations; see DESIGN.md)")
	case "hbo":
		fmt.Println("Table I — HBO cost model (Eqs. 1-4):")
		fmt.Println("  DCcost_ij = (Size_i + M_i + BW_i) x T_CLj")
		fmt.Println("  Size_i    = dchCPS x sizeVM_i        (storage price x VM image)")
		fmt.Println("  M_i       = dchCPR x RAMVM_i         (memory  price x VM RAM)")
		fmt.Println("  BW_i      = dchCPB x BwVM_i          (bandwidth price x VM bw)")
		fmt.Println("  Groups q  = 2      facLB = 1.5 x fair share (default)")
	case "rbs":
		fmt.Println("RBS parameters (Algorithm 3):")
		fmt.Println("  Groups q  = 2     thresholds v_g = g+1, NID = free VMs per group")
	case "homogeneous":
		fmt.Println("Table III — VM characteristics (homogeneous):")
		fmt.Printf("  %+v\n", workload.HomogeneousVMSpec())
		fmt.Println("Table IV — Cloudlet parameters (homogeneous):")
		fmt.Printf("  %+v\n", workload.HomogeneousCloudletSpec())
	case "heterogeneous":
		fmt.Println("Table V — VM characteristics (heterogeneous):")
		fmt.Printf("  %+v\n", workload.HeterogeneousVMSpec())
		fmt.Println("Table VI — Cloudlet parameters (heterogeneous):")
		fmt.Printf("  %+v\n", workload.HeterogeneousCloudletSpec())
		fmt.Println("Table VII — Datacenter prices (heterogeneous):")
		spec := workload.HeterogeneousDatacenterSpec(4)
		fmt.Printf("  CostPerMemory     %v-%v\n", spec.CostPerMemory.Min, spec.CostPerMemory.Max)
		fmt.Printf("  CostPerStorage    %v-%v\n", spec.CostPerStorage.Min, spec.CostPerStorage.Max)
		fmt.Printf("  CostPerBandwidth  %v-%v\n", spec.CostPerBandwidth.Min, spec.CostPerBandwidth.Max)
		fmt.Printf("  CostPerProcessing %v\n", spec.CostPerProcessing.Min)
	default:
		return fmt.Errorf("params: unknown topic %q", args[0])
	}
	return nil
}
