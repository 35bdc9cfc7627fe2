// Heterogeneous comparison: the paper's Figure 6 story in one run. All four
// algorithms schedule the same heterogeneous batch; the program prints every
// metric side by side and highlights the paper's headline findings — ACO
// wins simulation time, HBO wins cost, the base test wins count balance,
// and the bio-inspired schedulers pay for their intelligence in scheduling
// time.
//
// Run with:
//
//	go run ./examples/heterogeneous
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/workload"

	_ "bioschedsim/internal/aco"
	_ "bioschedsim/internal/hbo"
	_ "bioschedsim/internal/rbs"
)

func main() {
	nVMsF := flag.Int("vms", 100, "VM fleet size")
	nCloudletF := flag.Int("cloudlets", 2000, "cloudlet batch size")
	flag.Parse()
	nVMs, nCloudlet := *nVMsF, *nCloudletF
	const (
		nDCs = 4
		seed = 2016 // the paper's year; any seed reproduces the shapes
	)
	algorithms := []string{"aco", "base", "hbo", "rbs"}

	fmt.Printf("Heterogeneous scenario: %d VMs (MIPS 500-4000), %d cloudlets (1000-20000 MI), %d datacenters\n\n",
		nVMs, nCloudlet, nDCs)
	fmt.Printf("%-8s %14s %14s %12s %12s %14s\n",
		"alg", "sched-time", "sim-time(ms)", "time-imb", "count-imb", "cost")

	reports := map[string]metrics.Report{}
	for _, name := range algorithms {
		scheduler, err := sched.New(name)
		if err != nil {
			log.Fatal(err)
		}
		// Rebuild the scenario per algorithm: generation is pure in the
		// seed, so every scheduler sees the identical problem.
		scenario, err := workload.Heterogeneous(nVMs, nCloudlet, nDCs, seed)
		if err != nil {
			log.Fatal(err)
		}
		ctx := scenario.Context()
		start := time.Now()
		assignments, err := scheduler.Schedule(ctx)
		schedTime := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		cls, vms := sched.Split(assignments)
		res, err := cloud.Execute(scenario.Env, cloud.TimeSharedFactory, cls, vms)
		if err != nil {
			log.Fatal(err)
		}
		rep := metrics.Collect(name, res.Finished, scenario.Env.VMs, schedTime)
		reports[name] = rep
		fmt.Printf("%-8s %14v %14.1f %12.3f %12.3f %14.1f\n",
			name, rep.SchedulingTime.Round(time.Microsecond), rep.SimTimeMillis(),
			rep.Imbalance, rep.CountImbalance, rep.Cost)
	}

	fmt.Println("\nPaper's headline findings (§VI-D2), checked on this run:")
	check := func(label string, ok bool) {
		mark := "PASS"
		if !ok {
			mark = "miss"
		}
		fmt.Printf("  [%s] %s\n", mark, label)
	}
	check("ACO finishes cloudlets fastest (Fig. 6a)",
		reports["aco"].SimTime < reports["base"].SimTime &&
			reports["aco"].SimTime < reports["rbs"].SimTime)
	check("HBO beats the base test on simulation time (Fig. 6a)",
		reports["hbo"].SimTime < reports["base"].SimTime)
	check("base test schedules fastest, ACO slowest (Fig. 6b)",
		reports["base"].SchedulingTime < reports["rbs"].SchedulingTime*10 &&
			reports["aco"].SchedulingTime > reports["hbo"].SchedulingTime)
	check("HBO has the lowest processing cost (Fig. 6d)",
		reports["hbo"].Cost < reports["aco"].Cost &&
			reports["hbo"].Cost < reports["base"].Cost &&
			reports["hbo"].Cost < reports["rbs"].Cost)
	check("base test distributes counts most evenly (Fig. 6c narrative)",
		reports["base"].CountImbalance <= reports["aco"].CountImbalance &&
			reports["base"].CountImbalance <= reports["hbo"].CountImbalance)
}
