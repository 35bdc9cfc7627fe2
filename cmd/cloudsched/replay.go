package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/online"
	"bioschedsim/internal/tracecol"
	"bioschedsim/internal/workload"
)

// arrivalProcess builds a gentrace arrival process by name.
func arrivalProcess(name string, rate, rateA, rateB, sojournA, sojournB, amplitude, period float64) (workload.ArrivalProcess, error) {
	switch name {
	case "poisson":
		return workload.NewPoisson(rate)
	case "mmpp":
		return workload.NewMMPP(rateA, rateB, sojournA, sojournB)
	case "diurnal":
		return workload.NewDiurnal(rate, amplitude, period)
	default:
		return nil, fmt.Errorf("gentrace: unknown arrival process %q (want poisson, mmpp, or diurnal)", name)
	}
}

// onlinePolicy builds a per-arrival policy by name.
func onlinePolicy(name string, seed int64) (online.Scheduler, error) {
	return online.NewPolicy(name, rand.New(rand.NewSource(seed)))
}

// cmdReplay replays a workload trace file through an online policy.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	tracePath := fs.String("trace", "", "workload trace, CSV or columnar (see 'cloudsched gentrace' and 'cloudsched trace convert'); format sniffed by magic bytes")
	policyName := fs.String("policy", "online-eft", "per-arrival scheduling policy")
	vms := fs.Int("vms", 50, "fleet size")
	dcs := fs.Int("dcs", 4, "datacenters")
	seed := fs.Uint64("seed", 42, "root random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("replay: -trace is required")
	}
	entries, err := tracecol.ReadFileAuto(*tracePath, 0)
	if err != nil {
		return err
	}
	cls, arrivals := workload.Split(entries)

	scn, err := workload.Heterogeneous(*vms, 0, *dcs, *seed)
	if err != nil {
		return err
	}
	env := scn.Env
	policy, err := onlinePolicy(*policyName, int64(*seed))
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := online.Run(env, policy, cls, arrivals, cloud.TimeSharedFactory)
	if err != nil {
		return err
	}
	fmt.Printf("# replay %s: %d cloudlets on %d VMs with %s (%.2fs wall)\n",
		*tracePath, len(cls), *vms, *policyName, time.Since(start).Seconds())
	fmt.Printf("mean response   %10.3f s\n", res.MeanResponse)
	fmt.Printf("mean wait       %10.3f s\n", res.MeanWait)
	fmt.Printf("simulation time %10.3f s (Eq. 12)\n", res.SimTime)
	fmt.Printf("imbalance       %10.3f   (Eq. 13)\n", res.Imbalance)
	fmt.Printf("processing cost %10.2f\n", res.Cost)
	fmt.Printf("SLA compliance  %10.3f\n", metrics.SLAComplianceRate(res.Finished))
	return nil
}

// cmdGenTrace writes a synthetic trace file.
func cmdGenTrace(args []string) error {
	fs := flag.NewFlagSet("gentrace", flag.ExitOnError)
	n := fs.Int("n", 1000, "cloudlet count")
	rate := fs.Float64("rate", 4, "mean arrival rate (cloudlets/second; poisson and diurnal)")
	process := fs.String("process", "poisson", "arrival process: poisson | mmpp | diurnal")
	rateA := fs.Float64("rate-a", 2, "mmpp: arrival rate in the calm state")
	rateB := fs.Float64("rate-b", 16, "mmpp: arrival rate in the burst state")
	sojournA := fs.Float64("sojourn-a", 60, "mmpp: mean calm-state holding time (s)")
	sojournB := fs.Float64("sojourn-b", 10, "mmpp: mean burst-state holding time (s)")
	amplitude := fs.Float64("amplitude", 0.5, "diurnal: modulation depth in [0, 1)")
	period := fs.Float64("period", 600, "diurnal: seconds per cycle")
	out := fs.String("out", "", "output path (default stdout)")
	seed := fs.Uint64("seed", 42, "root random seed")
	slack := fs.Float64("deadline-slack", 0, "assign deadlines at this slack (0 = none)")
	vms := fs.Int("vms", 50, "fleet size used to derive deadlines")
	columnar := fs.Bool("columnar", false, "write the columnar binary format instead of CSV (requires -out)")
	compress := fs.Bool("compress", false, "flate-compress columnar blocks (with -columnar)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *columnar && *out == "" {
		return fmt.Errorf("gentrace: -columnar requires -out (binary traces don't go to a terminal)")
	}
	proc, err := arrivalProcess(*process, *rate, *rateA, *rateB, *sojournA, *sojournB, *amplitude, *period)
	if err != nil {
		return err
	}
	entries, err := workload.SyntheticTraceFrom(workload.HeterogeneousCloudletSpec(), *n, proc, *seed)
	if err != nil {
		return err
	}
	if *slack > 0 {
		scn, err := workload.Heterogeneous(*vms, 0, 1, *seed)
		if err != nil {
			return err
		}
		cls, _ := workload.Split(entries)
		if err := workload.AssignDeadlines(cls, scn.Env.VMs, *slack); err != nil {
			return err
		}
		// Deadlines are relative to batch start; offset by each arrival so
		// late arrivals keep their slack.
		for i := range entries {
			entries[i].Cloudlet.Deadline += entries[i].Arrival
		}
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *columnar {
		opts := tracecol.WriteOptions{}
		if *compress {
			opts.Compression = tracecol.CompressFlate
		}
		if err := tracecol.Write(w, entries, opts); err != nil {
			return err
		}
	} else if err := workload.WriteTrace(w, entries); err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %d entries to %s\n", len(entries), *out)
	}
	return nil
}
