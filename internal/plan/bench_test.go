package plan

import (
	"strconv"
	"testing"
)

// perfbenchSpec is `cloudsched plan`'s perfbench spec at seed 1: MMPP
// arrivals switching between 200/s and 800/s, exponential 1 000 MI
// cloudlets on single-PE 1 000-MIPS VMs behind the central queue, fleet
// searched over [1, 2048] for p99 ≤ 6 s. Its verdict is 6 probes and a
// smallest fleet of 345.
const perfbenchSpec = `{
  "name": "perfbench-plan-verdict",
  "workload": {"process": "mmpp", "rate_a": 200, "rate_b": 800, "sojourn_a": 6, "sojourn_b": 1,
               "cloudlets": 25000, "warmup": 500, "mean_length_mi": 1000},
  "fleet": {"vm_mips": 1000, "vm_pes": 1, "min_vms": 1, "max_vms": 2048, "dispatch": "queue"},
  "slo": {"quantile": 0.99, "target_seconds": 6},
  "seed": 1
}`

func parsePerfbenchSpec(b *testing.B) *Spec {
	b.Helper()
	spec, err := ParseSpec([]byte(perfbenchSpec))
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// BenchmarkPlanVerdict answers the perfbench spec under each dispatch:
// one op is one full verdict, every probe included. A verdict draws its
// arrivals and demands once and measures each probe on that draw, so B/op
// is one draw plus each probe's own state (the server heap, or the DES
// fleet and cloudlets). Each leg pins its verdict: queue dispatch takes 6
// probes to a smallest fleet of 345, spread dispatch 6 probes to 418.
func BenchmarkPlanVerdict(b *testing.B) {
	for _, leg := range []struct {
		dispatch         string
		probes, minFleet int
	}{
		{DispatchQueue, 6, 345},
		{DispatchSpread, 6, 418},
	} {
		spec := parsePerfbenchSpec(b)
		spec.Fleet.Dispatch = leg.dispatch
		b.Run(leg.dispatch, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := Plan(spec, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(v.Probes) != leg.probes || v.MinFleet != leg.minFleet {
					b.Fatalf("%d probes, smallest fleet %d; want %d and %d", len(v.Probes), v.MinFleet, leg.probes, leg.minFleet)
				}
			}
		})
	}
}

// BenchmarkPlanRun is one probe of that spec at its largest fleet (2048
// VMs, mostly idle) and at its answer (345 VMs, the queue often
// non-empty), three ways: queue dispatch as Run computes it (the
// recursion), queue dispatch on the DES oracle (des-queue, so one run
// shows the per-probe ratio), and spread dispatch on the DES (each arrival
// straight to the least-loaded VM). events/s is events per wall second; on
// the queue legs it counts the 2n events the DES fires for a queue probe,
// which the recursion reports without firing them. Each leg is serial, so
// it is a per-core figure.
func BenchmarkPlanRun(b *testing.B) {
	legs := []struct {
		name, dispatch string
		run            func(*Spec, int, *RunOptions) (*RunResult, error)
	}{
		{DispatchQueue, DispatchQueue, Run},
		{"des-queue", DispatchQueue, runDESQueue},
		{DispatchSpread, DispatchSpread, Run},
	}
	for _, leg := range legs {
		spec := parsePerfbenchSpec(b)
		spec.Fleet.Dispatch = leg.dispatch
		for _, fleet := range []int{2048, 345} {
			b.Run(leg.name+"/"+strconv.Itoa(fleet), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				var events uint64
				for i := 0; i < b.N; i++ {
					res, err := leg.run(spec, fleet, nil)
					if err != nil {
						b.Fatal(err)
					}
					events += res.EngineEvents
				}
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}
