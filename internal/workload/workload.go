// Package workload generates the paper's experimental scenarios: the
// homogeneous setup of Tables III–IV and the heterogeneous setup of Tables
// V–VII. All generation is driven by explicit seeds through
// internal/xrand, so a scenario is a pure function of (spec, sizes, seed).
package workload

import (
	"fmt"
	"math/rand"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/objective"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/xrand"
)

// VMSpec describes how to draw VM characteristics. Min==Max yields the
// homogeneous setup.
type VMSpec struct {
	MIPSMin, MIPSMax float64
	PEs              int
	RAM              float64 // MB
	Bw               float64 // Mbps
	Size             float64 // image MB
}

// CloudletSpec describes how to draw cloudlet characteristics.
type CloudletSpec struct {
	LengthMin, LengthMax float64 // MI
	PEs                  int
	FileSize             float64 // MB
	OutputSize           float64 // MB
}

// PriceRange is a closed interval of datacenter prices.
type PriceRange struct{ Min, Max float64 }

// draw samples the range uniformly; degenerate ranges return Min.
func (p PriceRange) draw(r *rand.Rand) float64 {
	if p.Max <= p.Min {
		return p.Min
	}
	return p.Min + r.Float64()*(p.Max-p.Min)
}

// DatacenterSpec describes the plant: how many datacenters, their price
// ranges (Table VII), and the host building blocks.
type DatacenterSpec struct {
	Count             int
	CostPerMemory     PriceRange
	CostPerStorage    PriceRange
	CostPerBandwidth  PriceRange
	CostPerProcessing PriceRange
	HostPEs           int     // processing elements per host
	HostPEMIPS        float64 // MIPS per host PE
	HostRAM           float64
	HostBw            float64
	HostStorage       float64
}

// The paper's Table III: homogeneous VM characteristics.
func HomogeneousVMSpec() VMSpec {
	return VMSpec{MIPSMin: 1000, MIPSMax: 1000, PEs: 1, RAM: 512, Bw: 500, Size: 5000}
}

// The paper's Table IV: homogeneous cloudlet parameters.
func HomogeneousCloudletSpec() CloudletSpec {
	return CloudletSpec{LengthMin: 250, LengthMax: 250, PEs: 1, FileSize: 300, OutputSize: 300}
}

// The paper's Table V: heterogeneous VM characteristics (MIPS 500–4000).
func HeterogeneousVMSpec() VMSpec {
	return VMSpec{MIPSMin: 500, MIPSMax: 4000, PEs: 1, RAM: 512, Bw: 500, Size: 5000}
}

// The paper's Table VI: heterogeneous cloudlet parameters (length
// 1000–20000 MI).
func HeterogeneousCloudletSpec() CloudletSpec {
	return CloudletSpec{LengthMin: 1000, LengthMax: 20000, PEs: 1, FileSize: 300, OutputSize: 300}
}

// HeterogeneousDatacenterSpec reproduces Table VII's price ranges over
// count datacenters with uniformly drawn prices.
func HeterogeneousDatacenterSpec(count int) DatacenterSpec {
	return DatacenterSpec{
		Count:             count,
		CostPerMemory:     PriceRange{0.01, 0.05},
		CostPerStorage:    PriceRange{0.001, 0.004},
		CostPerBandwidth:  PriceRange{0.01, 0.05},
		CostPerProcessing: PriceRange{3, 3},
		HostPEs:           32,
		HostPEMIPS:        4000,
		HostRAM:           1 << 20,
		HostBw:            1 << 20,
		HostStorage:       1 << 32,
	}
}

// HomogeneousDatacenterSpec uses Table VII's expensive endpoints as fixed
// prices (the homogeneous scenario does not vary costs) over count
// datacenters of 1000-MIPS-PE hosts.
func HomogeneousDatacenterSpec(count int) DatacenterSpec {
	return DatacenterSpec{
		Count:             count,
		CostPerMemory:     PriceRange{0.05, 0.05},
		CostPerStorage:    PriceRange{0.004, 0.004},
		CostPerBandwidth:  PriceRange{0.05, 0.05},
		CostPerProcessing: PriceRange{3, 3},
		HostPEs:           32,
		HostPEMIPS:        1000,
		HostRAM:           1 << 20,
		HostBw:            1 << 20,
		HostStorage:       1 << 32,
	}
}

// GenerateVMs draws n VMs from spec using stream (seed, 1).
func GenerateVMs(spec VMSpec, n int, seed uint64) []*cloud.VM {
	r := xrand.New(seed, 1)
	vms := make([]*cloud.VM, n)
	for i := range vms {
		mips := spec.MIPSMin
		if spec.MIPSMax > spec.MIPSMin {
			mips += r.Float64() * (spec.MIPSMax - spec.MIPSMin)
		}
		vms[i] = cloud.NewVM(i, mips, spec.PEs, spec.RAM, spec.Bw, spec.Size)
	}
	return vms
}

// GenerateCloudlets draws n cloudlets from spec using stream (seed, 2).
func GenerateCloudlets(spec CloudletSpec, n int, seed uint64) []*cloud.Cloudlet {
	r := xrand.New(seed, 2)
	cls := make([]*cloud.Cloudlet, n)
	for i := range cls {
		length := spec.LengthMin
		if spec.LengthMax > spec.LengthMin {
			length += r.Float64() * (spec.LengthMax - spec.LengthMin)
		}
		cls[i] = cloud.NewCloudlet(i, length, spec.PEs, spec.FileSize, spec.OutputSize)
	}
	return cls
}

// GenerateEnvironment builds dcSpec.Count datacenters with enough hosts for
// the VM fleet, draws prices from stream (seed, 3), places the VMs
// least-loaded (which interleaves them across datacenters), and returns the
// validated environment.
func GenerateEnvironment(dcSpec DatacenterSpec, vms []*cloud.VM, seed uint64) (*cloud.Environment, error) {
	if dcSpec.Count <= 0 {
		return nil, fmt.Errorf("workload: datacenter count must be positive, got %d", dcSpec.Count)
	}
	if len(vms) == 0 {
		return nil, fmt.Errorf("workload: no VMs to place")
	}
	r := xrand.New(seed, 3)

	// Size the plant: hosts per DC so aggregate capacity comfortably exceeds
	// the fleet's demand (2x headroom, minimum one host per DC).
	var demand float64
	for _, vm := range vms {
		demand += vm.Capacity()
	}
	hostMIPS := float64(dcSpec.HostPEs) * dcSpec.HostPEMIPS
	hostsTotal := int(2*demand/hostMIPS) + dcSpec.Count
	hostsPerDC := hostsTotal / dcSpec.Count
	if hostsPerDC < 1 {
		hostsPerDC = 1
	}

	env := &cloud.Environment{VMs: vms}
	hostID := 0
	for d := 0; d < dcSpec.Count; d++ {
		ch := cloud.Characteristics{
			CostPerMemory:     dcSpec.CostPerMemory.draw(r),
			CostPerStorage:    dcSpec.CostPerStorage.draw(r),
			CostPerBandwidth:  dcSpec.CostPerBandwidth.draw(r),
			CostPerProcessing: dcSpec.CostPerProcessing.draw(r),
		}
		hosts := make([]*cloud.Host, hostsPerDC)
		for i := range hosts {
			hosts[i] = cloud.NewHost(hostID, cloud.NewPEs(dcSpec.HostPEs, dcSpec.HostPEMIPS),
				dcSpec.HostRAM, dcSpec.HostBw, dcSpec.HostStorage)
			hostID++
		}
		env.Datacenters = append(env.Datacenters, cloud.NewDatacenter(d, fmt.Sprintf("dc%d", d), ch, hosts))
	}
	if err := cloud.Allocate(env.Hosts(), vms); err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	return env, nil
}

// AssignDeadlines gives every cloudlet a deadline equal to slack times its
// best-case execution time across vms (its fastest possible completion),
// drawn at least minSlack. slack < 1 produces infeasible deadlines for
// stress testing. Uses no randomness: deadlines are a pure function of the
// inputs.
func AssignDeadlines(cloudlets []*cloud.Cloudlet, vms []*cloud.VM, slack float64) error {
	if slack <= 0 {
		return fmt.Errorf("workload: slack must be positive, got %v", slack)
	}
	if len(vms) == 0 {
		return fmt.Errorf("workload: no VMs to derive deadlines from")
	}
	// Partitioning the fleet into exec-equivalence classes makes the best-case
	// scan K evaluations per cloudlet instead of one per VM.
	classes := objective.ClassesOf(vms)
	for _, c := range cloudlets {
		c.Deadline = classes.MinExecTime(c) * slack
	}
	return nil
}

// Scenario is a fully materialized experiment input.
type Scenario struct {
	Name      string
	Env       *cloud.Environment
	Cloudlets []*cloud.Cloudlet
	Seed      uint64
}

// Context builds the scheduling context for the scenario; the embedded
// random stream is (seed, 4), independent of the generation streams.
func (s *Scenario) Context() *sched.Context {
	return &sched.Context{
		Cloudlets:   s.Cloudlets,
		VMs:         s.Env.VMs,
		Datacenters: s.Env.Datacenters,
		Rand:        xrand.New(s.Seed, 4),
	}
}

// Homogeneous materializes the paper's homogeneous scenario (§VI-B,
// Tables III–IV): nVMs identical VMs in one datacenter, nCloudlets
// identical cloudlets.
func Homogeneous(nVMs, nCloudlets int, seed uint64) (*Scenario, error) {
	return scenario(fmt.Sprintf("homogeneous/vms=%d/cloudlets=%d", nVMs, nCloudlets),
		HomogeneousVMSpec(), HomogeneousCloudletSpec(), HomogeneousDatacenterSpec(1), nVMs, nCloudlets, seed)
}

// Heterogeneous materializes the paper's heterogeneous scenario (§VI-B,
// Tables V–VII): VM MIPS in [500,4000], cloudlet lengths in [1000,20000],
// nDCs datacenters with prices drawn from Table VII's ranges.
func Heterogeneous(nVMs, nCloudlets, nDCs int, seed uint64) (*Scenario, error) {
	return scenario(fmt.Sprintf("heterogeneous/vms=%d/cloudlets=%d/dcs=%d", nVMs, nCloudlets, nDCs),
		HeterogeneousVMSpec(), HeterogeneousCloudletSpec(), HeterogeneousDatacenterSpec(nDCs), nVMs, nCloudlets, seed)
}

// scenario draws nVMs VMs and nCloudlets cloudlets from the specs and
// places the VMs in dc's datacenters.
func scenario(name string, vm VMSpec, cl CloudletSpec, dc DatacenterSpec, nVMs, nCloudlets int, seed uint64) (*Scenario, error) {
	if err := checkCount("VM", nVMs); err != nil {
		return nil, err
	}
	if err := checkCount("cloudlet", nCloudlets); err != nil {
		return nil, err
	}
	env, err := GenerateEnvironment(dc, GenerateVMs(vm, nVMs, seed), seed)
	if err != nil {
		return nil, err
	}
	return &Scenario{Name: name, Env: env, Cloudlets: GenerateCloudlets(cl, nCloudlets, seed), Seed: seed}, nil
}
