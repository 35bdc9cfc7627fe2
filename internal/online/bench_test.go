package online

import (
	"math/rand"
	"testing"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/sim"
	"bioschedsim/internal/workload"
)

// BenchmarkOnlineRunMMPP times the simulate stage of `cloudsched replay`
// at 1/10 of its benchmark scale: 100 000 rows with gentrace's default
// MMPP arrivals, placed by online-eft on 50 heterogeneous VMs over 4
// datacenters. Building the fresh cloudlets and fleet each run needs is
// left out of the timing and of the allocation counts.
func BenchmarkOnlineRunMMPP(b *testing.B) {
	const rows, vms, seed = 100_000, 50, 1
	proc, err := workload.NewMMPP(2, 16, 60, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		entries, err := workload.SyntheticTraceFrom(workload.HeterogeneousCloudletSpec(), rows, proc, seed)
		if err != nil {
			b.Fatal(err)
		}
		cls, arrivals := workload.Split(entries)
		fleet := workload.GenerateVMs(workload.HeterogeneousVMSpec(), vms, seed)
		env, err := workload.GenerateEnvironment(workload.HeterogeneousDatacenterSpec(4), fleet, seed)
		if err != nil {
			b.Fatal(err)
		}
		policy, err := NewPolicy("online-eft", rand.New(rand.NewSource(seed)))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Run(env, policy, cls, arrivals, cloud.TimeSharedFactory); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "cloudlets/s")
}

// placeFixture binds replay-trace's fleet (50 heterogeneous VMs over 4
// datacenters) to a broker whose engine never runs, puts i%7 cloudlets on
// VM i, and returns the fleet with a fresh cloudlet to place.
func placeFixture(tb testing.TB) ([]*cloud.VM, *cloud.Cloudlet) {
	tb.Helper()
	const vms, seed = 50, 1
	fleet := workload.GenerateVMs(workload.HeterogeneousVMSpec(), vms, seed)
	env, err := workload.GenerateEnvironment(workload.HeterogeneousDatacenterSpec(4), fleet, seed)
	if err != nil {
		tb.Fatal(err)
	}
	cls := workload.GenerateCloudlets(workload.HeterogeneousCloudletSpec(), 1+3*vms, seed)
	b := cloud.NewBroker(sim.NewEngine(), env, cloud.TimeSharedFactory)
	next := 1
	for i, vm := range env.VMs {
		for r := 0; r < i%7; r++ {
			b.Submit(cls[next], vm)
			next++
		}
	}
	return env.VMs, cls[0]
}

// seedFeedback reports one completion per busy VM, so the learning
// policies place from populated trails rather than their priors.
func seedFeedback(p Scheduler, vms []*cloud.VM) {
	fb, ok := p.(Feedback)
	if !ok {
		return
	}
	for i, vm := range vms {
		if vm.QueuedOrRunning() > 0 {
			fb.Completed(&cloud.Cloudlet{Length: 1000, VM: vm}, 0.5+float64(i%5))
		}
	}
}

// BenchmarkPlace times one Place call of each per-arrival policy on
// replay-trace's 50-VM fleet with mixed residency.
//
//	go test -run '^$' -bench Place -benchmem ./internal/online
func BenchmarkPlace(b *testing.B) {
	vms, c := placeFixture(b)
	for _, name := range []string{"eft", "aco", "hbo", "least"} {
		b.Run(name, func(b *testing.B) {
			p, err := NewPolicy("online-"+name, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			seedFeedback(p, vms)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Place(c, vms); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
