package workload

import (
	"testing"
	"testing/quick"

	"bioschedsim/internal/cloud"
)

func TestHomogeneousSpecsMatchTablesIIIandIV(t *testing.T) {
	vm := HomogeneousVMSpec()
	if vm.MIPSMin != 1000 || vm.MIPSMax != 1000 {
		t.Errorf("vmMips: %v-%v want 1000", vm.MIPSMin, vm.MIPSMax)
	}
	if vm.Size != 5000 || vm.RAM != 512 || vm.Bw != 500 || vm.PEs != 1 {
		t.Errorf("VM spec mismatch with Table III: %+v", vm)
	}
	cl := HomogeneousCloudletSpec()
	if cl.LengthMin != 250 || cl.LengthMax != 250 {
		t.Errorf("cLength: %v-%v want 250", cl.LengthMin, cl.LengthMax)
	}
	if cl.FileSize != 300 || cl.OutputSize != 300 || cl.PEs != 1 {
		t.Errorf("cloudlet spec mismatch with Table IV: %+v", cl)
	}
}

func TestHeterogeneousSpecsMatchTablesVtoVII(t *testing.T) {
	vm := HeterogeneousVMSpec()
	if vm.MIPSMin != 500 || vm.MIPSMax != 4000 {
		t.Errorf("vmMips range: %v-%v want 500-4000", vm.MIPSMin, vm.MIPSMax)
	}
	cl := HeterogeneousCloudletSpec()
	if cl.LengthMin != 1000 || cl.LengthMax != 20000 {
		t.Errorf("cLength range: %v-%v want 1000-20000", cl.LengthMin, cl.LengthMax)
	}
	dc := HeterogeneousDatacenterSpec(4)
	if dc.CostPerMemory != (PriceRange{0.01, 0.05}) {
		t.Errorf("CostPerMemory: %+v", dc.CostPerMemory)
	}
	if dc.CostPerStorage != (PriceRange{0.001, 0.004}) {
		t.Errorf("CostPerStorage: %+v", dc.CostPerStorage)
	}
	if dc.CostPerBandwidth != (PriceRange{0.01, 0.05}) {
		t.Errorf("CostPerBandwidth: %+v", dc.CostPerBandwidth)
	}
	if dc.CostPerProcessing != (PriceRange{3, 3}) {
		t.Errorf("CostPerProcessing: %+v", dc.CostPerProcessing)
	}
}

func TestGenerateVMsHomogeneousIdentical(t *testing.T) {
	vms := GenerateVMs(HomogeneousVMSpec(), 50, 1)
	for _, vm := range vms {
		if vm.MIPS != 1000 {
			t.Fatalf("VM %d MIPS %v", vm.ID, vm.MIPS)
		}
	}
}

func TestGenerateVMsHeterogeneousInRange(t *testing.T) {
	vms := GenerateVMs(HeterogeneousVMSpec(), 200, 2)
	var below, above int
	for _, vm := range vms {
		if vm.MIPS < 500 || vm.MIPS > 4000 {
			t.Fatalf("VM %d MIPS %v out of Table V range", vm.ID, vm.MIPS)
		}
		if vm.MIPS < 2250 {
			below++
		} else {
			above++
		}
	}
	// Uniform draw should populate both halves.
	if below == 0 || above == 0 {
		t.Fatalf("MIPS distribution degenerate: below=%d above=%d", below, above)
	}
}

func TestGenerateCloudletsInRange(t *testing.T) {
	cls := GenerateCloudlets(HeterogeneousCloudletSpec(), 200, 3)
	for _, c := range cls {
		if c.Length < 1000 || c.Length > 20000 {
			t.Fatalf("cloudlet %d length %v out of Table VI range", c.ID, c.Length)
		}
	}
}

func TestGenerationDeterministic(t *testing.T) {
	a := GenerateVMs(HeterogeneousVMSpec(), 50, 42)
	b := GenerateVMs(HeterogeneousVMSpec(), 50, 42)
	for i := range a {
		if a[i].MIPS != b[i].MIPS {
			t.Fatalf("VM generation not deterministic at %d", i)
		}
	}
	c := GenerateVMs(HeterogeneousVMSpec(), 50, 43)
	same := 0
	for i := range a {
		if a[i].MIPS == c[i].MIPS {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical fleets")
	}
}

func TestVMAndCloudletStreamsIndependent(t *testing.T) {
	// Changing cloudlet count must not alter the VM fleet for a fixed seed.
	vms1 := GenerateVMs(HeterogeneousVMSpec(), 20, 7)
	_ = GenerateCloudlets(HeterogeneousCloudletSpec(), 1000, 7)
	vms2 := GenerateVMs(HeterogeneousVMSpec(), 20, 7)
	for i := range vms1 {
		if vms1[i].MIPS != vms2[i].MIPS {
			t.Fatal("VM stream contaminated by cloudlet generation")
		}
	}
}

func TestGenerateEnvironmentPlacesEverything(t *testing.T) {
	vms := GenerateVMs(HeterogeneousVMSpec(), 64, 5)
	env, err := GenerateEnvironment(HeterogeneousDatacenterSpec(4), vms, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Datacenters) != 4 {
		t.Fatalf("datacenters: %d", len(env.Datacenters))
	}
	placed := map[*cloud.Datacenter]int{}
	for _, vm := range env.VMs {
		if vm.Host == nil {
			t.Fatalf("VM %d unplaced", vm.ID)
		}
		placed[vm.Datacenter()]++
	}
	// Every datacenter should receive some VMs under least-loaded placement.
	for _, dc := range env.Datacenters {
		if placed[dc] == 0 {
			t.Fatalf("datacenter %d received no VMs", dc.ID)
		}
	}
}

func TestGenerateEnvironmentPriceSpread(t *testing.T) {
	vms := GenerateVMs(HeterogeneousVMSpec(), 32, 9)
	env, err := GenerateEnvironment(HeterogeneousDatacenterSpec(4), vms, 9)
	if err != nil {
		t.Fatal(err)
	}
	prices := map[float64]bool{}
	for _, dc := range env.Datacenters {
		ch := dc.Characteristics
		if ch.CostPerMemory < 0.01 || ch.CostPerMemory > 0.05 {
			t.Fatalf("dc %d CostPerMemory %v out of range", dc.ID, ch.CostPerMemory)
		}
		if ch.CostPerProcessing != 3 {
			t.Fatalf("dc %d CostPerProcessing %v want 3", dc.ID, ch.CostPerProcessing)
		}
		prices[ch.CostPerMemory] = true
	}
	if len(prices) < 2 {
		t.Fatal("datacenter prices did not vary")
	}
}

func TestGenerateEnvironmentErrors(t *testing.T) {
	vms := GenerateVMs(HomogeneousVMSpec(), 4, 1)
	if _, err := GenerateEnvironment(HomogeneousDatacenterSpec(0), vms, 1); err == nil {
		t.Fatal("zero datacenters accepted")
	}
	if _, err := GenerateEnvironment(HomogeneousDatacenterSpec(1), nil, 1); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

func TestHomogeneousScenario(t *testing.T) {
	s, err := Homogeneous(16, 128, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Env.VMs) != 16 || len(s.Cloudlets) != 128 {
		t.Fatalf("sizes: %d VMs %d cloudlets", len(s.Env.VMs), len(s.Cloudlets))
	}
	ctx := s.Context()
	if err := ctx.Validate(); err != nil {
		t.Fatal(err)
	}
	if ctx.Rand == nil {
		t.Fatal("context missing rand")
	}
}

func TestHeterogeneousScenario(t *testing.T) {
	s, err := Heterogeneous(50, 500, 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Env.Datacenters) != 4 {
		t.Fatalf("datacenters: %d", len(s.Env.Datacenters))
	}
	if s.Name == "" {
		t.Fatal("scenario unnamed")
	}
}

func TestScenarioContextsIndependent(t *testing.T) {
	s, err := Heterogeneous(10, 50, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Context(), s.Context()
	for i := 0; i < 16; i++ {
		if a.Rand.Uint64() != b.Rand.Uint64() {
			t.Fatal("scenario contexts should carry identical streams")
		}
	}
}

func TestScenarioPropertySound(t *testing.T) {
	f := func(seed uint64, vmN, clN uint8) bool {
		nVMs := 1 + int(vmN)%30
		nCls := 1 + int(clN)%100
		s, err := Heterogeneous(nVMs, nCls, 2, seed)
		if err != nil {
			return false
		}
		if len(s.Env.VMs) != nVMs || len(s.Cloudlets) != nCls {
			return false
		}
		for _, c := range s.Cloudlets {
			if c.Status != cloud.CloudletCreated {
				return false
			}
		}
		return s.Env.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignDeadlines(t *testing.T) {
	vms := GenerateVMs(HeterogeneousVMSpec(), 10, 3)
	cls := GenerateCloudlets(HeterogeneousCloudletSpec(), 50, 3)
	if err := AssignDeadlines(cls, vms, 3); err != nil {
		t.Fatal(err)
	}
	var fastest *cloud.VM
	for _, vm := range vms {
		if fastest == nil || vm.Capacity() > fastest.Capacity() {
			fastest = vm
		}
	}
	for _, c := range cls {
		if c.Deadline <= 0 {
			t.Fatalf("cloudlet %d without deadline", c.ID)
		}
		// Deadline must be at least 3x the best-case execution somewhere,
		// hence ≥ 3x the fastest VM's estimate is an upper bound check:
		if c.Deadline > fastest.EstimateExecTime(c)*3+1e-9 {
			t.Fatalf("cloudlet %d deadline %v above 3x fastest estimate %v",
				c.ID, c.Deadline, fastest.EstimateExecTime(c)*3)
		}
	}
}

func TestAssignDeadlinesErrors(t *testing.T) {
	vms := GenerateVMs(HomogeneousVMSpec(), 2, 1)
	cls := GenerateCloudlets(HomogeneousCloudletSpec(), 2, 1)
	if err := AssignDeadlines(cls, vms, 0); err == nil {
		t.Fatal("zero slack accepted")
	}
	if err := AssignDeadlines(cls, nil, 2); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

func TestPoissonArrivals(t *testing.T) {
	arr, err := PoissonArrivals(10000, 2.0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != 10000 {
		t.Fatalf("len: %d", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatalf("arrivals not sorted at %d", i)
		}
	}
	// Mean inter-arrival ≈ 1/rate = 0.5 s (±10% over 10k draws).
	mean := arr[len(arr)-1] / float64(len(arr))
	if mean < 0.45 || mean > 0.55 {
		t.Fatalf("mean inter-arrival %v, want ~0.5", mean)
	}
}

func TestPoissonArrivalsDeterministic(t *testing.T) {
	a, _ := PoissonArrivals(100, 1, 7)
	b, _ := PoissonArrivals(100, 1, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
}

func TestPoissonArrivalsErrors(t *testing.T) {
	if _, err := PoissonArrivals(-1, 1, 1); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := PoissonArrivals(5, 0, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if arr, err := PoissonArrivals(0, 1, 1); err != nil || len(arr) != 0 {
		t.Fatalf("zero n: %v %v", arr, err)
	}
}

func TestPriceRangeDraw(t *testing.T) {
	// Degenerate range returns Min without consuming randomness issues.
	p := PriceRange{3, 3}
	if got := p.draw(nil); got != 3 {
		t.Fatalf("degenerate draw: %v", got)
	}
}
