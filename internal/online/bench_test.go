package online

import (
	"math/rand"
	"testing"

	"bioschedsim/internal/cloud"
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
