// Package check is the property-testing harness for the scheduling stack:
// it generates randomized scenarios over the paper's parameter space
// (Tables III–VII) plus the degenerate shapes unit fixtures never reach
// (single-VM fleets, fleets wider than the batch, VMs with more PEs than
// the fleet has VMs, arrival bursts, empty batches), runs every registered
// scheduler through the full sched.Context → simulator pipeline, and
// asserts one shared invariant suite:
//
//   - conservation — every cloudlet assigned exactly once to an in-range VM
//   - determinism — same scenario seed ⇒ identical assignment vector
//   - worker-invariance — re-running at GOMAXPROCS 1, 2 and P (the
//     caller's setting) yields the identical assignment vector
//   - permutation — for schedulers declaring the trait, cloudlet-order
//     permutation leaves the estimated makespan unchanged on
//     identical-cloudlet workloads
//   - oracle — the class-compressed objective.Evaluator agrees with a
//     brute-force straight-line reference executor to 1e-9
//   - eq12 — the simulated makespan equals the max per-VM finish time
//     recomputed independently from the finished cloudlets
//   - eq13 — the degree-of-imbalance metrics are finite and non-negative
//   - reject-empty — schedulers refuse zero-length batches with an error
//
// Failing scenarios shrink to a minimal reproduction (halve cloudlets,
// then VMs, re-check) and carry a one-line `schedcheck replay` command.
// Everything is a pure function of the scenario seed: no wall clock, no
// global randomness, so a failure printed in CI replays identically on a
// laptop.
package check

import (
	"math"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/sim"
	"bioschedsim/internal/workload"
	"bioschedsim/internal/xrand"
)

// Built is a fully materialized scenario: the scheduling context, the
// environment it executes on, and (for burst scenarios) per-cloudlet
// arrival offsets. Each Build call returns fresh objects, which is what
// lets the determinism invariant re-run a scenario from scratch.
type Built struct {
	Ctx *sched.Context
	Env *cloud.Environment
	// Arrivals holds staggered submission offsets (seconds from batch
	// start); nil means the paper's batch-at-zero submission.
	Arrivals []sim.Time
	// Identical reports that every cloudlet in the batch has the same
	// demands, which is what the permutation invariant requires.
	Identical bool
}

// HeterogeneousFixture builds the two-datacenter context scheduler unit
// tests share (extracted from internal/schedtest): nVMs VMs with MIPS
// uniform in [500,4000] (Table V), nCls cloudlets with lengths in
// [1000,20000] MI (Table VI), datacenter 0 carrying Table VII's expensive
// price endpoints and datacenter 1 the cheap ones — a fixed ~4–5x price
// spread cost-aware scheduler tests rely on. All draws come from xrand
// streams of seed.
func HeterogeneousFixture(nVMs, nCls int, seed uint64) (*Built, error) {
	mkHosts := func(base, n int) []*cloud.Host {
		hosts := make([]*cloud.Host, n)
		for i := range hosts {
			hosts[i] = cloud.NewHost(base+i, cloud.NewPEs(16, 4000), 1<<20, 1<<20, 1<<30)
		}
		return hosts
	}
	nh := nVMs/8 + 1
	dcs := []*cloud.Datacenter{
		cloud.NewDatacenter(0, "pricey", cloud.Characteristics{
			CostPerMemory: 0.05, CostPerStorage: 0.004, CostPerBandwidth: 0.05, CostPerProcessing: 3,
		}, mkHosts(0, nh)),
		cloud.NewDatacenter(1, "cheap", cloud.Characteristics{
			CostPerMemory: 0.01, CostPerStorage: 0.001, CostPerBandwidth: 0.01, CostPerProcessing: 3,
		}, mkHosts(nh, nh)),
	}
	vms := workload.GenerateVMs(workload.HeterogeneousVMSpec(), nVMs, seed)
	env := &cloud.Environment{Datacenters: dcs, VMs: vms}
	if err := cloud.Allocate(env.Hosts(), vms); err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	cls := workload.GenerateCloudlets(workload.HeterogeneousCloudletSpec(), nCls, seed)
	return &Built{
		Ctx: &sched.Context{
			Cloudlets: cls, VMs: vms, Datacenters: dcs,
			Rand: xrand.New(seed, 4),
		},
		Env: env,
	}, nil
}

// HomogeneousFixture builds the single-datacenter identical-VM,
// identical-cloudlet context of Tables III–IV (extracted from
// internal/schedtest), seeded through xrand streams.
func HomogeneousFixture(nVMs, nCls int, seed uint64) (*Built, error) {
	nh := nVMs/16 + 1
	hosts := make([]*cloud.Host, nh)
	for i := range hosts {
		hosts[i] = cloud.NewHost(i, cloud.NewPEs(16, 1000), 1<<24, 1<<24, 1<<36)
	}
	dc := cloud.NewDatacenter(0, "dc", cloud.Characteristics{
		CostPerMemory: 0.05, CostPerStorage: 0.004, CostPerBandwidth: 0.05, CostPerProcessing: 3,
	}, hosts)
	vms := workload.GenerateVMs(workload.HomogeneousVMSpec(), nVMs, seed)
	env := &cloud.Environment{Datacenters: []*cloud.Datacenter{dc}, VMs: vms}
	if err := cloud.Allocate(hosts, vms); err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	cls := workload.GenerateCloudlets(workload.HomogeneousCloudletSpec(), nCls, seed)
	return &Built{
		Ctx: &sched.Context{
			Cloudlets: cls, VMs: vms, Datacenters: []*cloud.Datacenter{dc},
			Rand: xrand.New(seed, 4),
		},
		Env:       env,
		Identical: true,
	}, nil
}

// relDiff returns |a−b| scaled by max(1, |a|, |b|): absolute near zero,
// relative for large magnitudes — the comparison every invariant uses.
func relDiff(a, b float64) float64 {
	scale := 1.0
	if s := math.Abs(a); s > scale {
		scale = s
	}
	if s := math.Abs(b); s > scale {
		scale = s
	}
	return math.Abs(a-b) / scale
}
