// Largescale: the paper's homogeneous stress scenario (Figs. 4 and 5) at a
// configurable fraction of the published 1 000 000-cloudlet size. It sweeps
// the fleet and reports how the makespan shrinks as VMs are added and what
// each scheduler's decision time costs — the base test is effectively free
// while the bio-inspired schedulers pay for their search.
//
// Run with (defaults to 1% of the paper's size):
//
//	go run ./examples/largescale [-scale 0.01]
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
	scale := flag.Float64("scale", 0.01, "fraction of the paper's homogeneous problem size")
	flag.Parse()

	nCloudlets := int(1_000_000 * *scale)
	if nCloudlets < 10 {
		nCloudlets = 10
	}
	fleetSizes := []int{}
	for _, paper := range []int{1000, 3000, 5000, 7000, 9000} {
		n := int(float64(paper) * *scale)
		if n < 2 {
			n = 2
		}
		fleetSizes = append(fleetSizes, n)
	}

	fmt.Printf("Homogeneous scenario at scale %g: %d identical cloudlets (Table IV), fleets %v (Table III)\n\n",
		*scale, nCloudlets, fleetSizes)
	fmt.Printf("%8s | %-10s %14s %16s %12s\n", "VMs", "alg", "sched-time", "sim-time(ms)", "events")

	for _, nVMs := range fleetSizes {
		for _, name := range []string{"base", "aco", "hbo", "rbs"} {
			scheduler, err := sched.New(name)
			if err != nil {
				log.Fatal(err)
			}
			scenario, err := workload.Homogeneous(nVMs, nCloudlets, 7)
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
			fmt.Printf("%8d | %-10s %14v %16.1f %12d\n",
				nVMs, name, rep.SchedulingTime.Round(time.Microsecond), rep.SimTimeMillis(), res.EngineEvents)
		}
		fmt.Println()
	}
	fmt.Println("Note how every scheduler converges to the base test's makespan (the")
	fmt.Println("homogeneous optimum) while their scheduling times differ by orders of")
	fmt.Println("magnitude — the paper's Figure 4 vs Figure 5 contrast.")
}
