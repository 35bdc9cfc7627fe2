package cloud

import (
	"math"
	"testing"

	"bioschedsim/internal/sim"
)

// testEnv builds a two-datacenter environment with nVMs identical VMs.
func testEnv(t testing.TB, nVMs int, mips float64) *Environment {
	t.Helper()
	mkHosts := func(base, n int) []*Host {
		hosts := make([]*Host, n)
		for i := range hosts {
			hosts[i] = NewHost(base+i, NewPEs(8, 4000), 1<<16, 1<<20, 1<<30)
		}
		return hosts
	}
	nHosts := nVMs/4 + 1
	dc0 := NewDatacenter(0, "dc0", Characteristics{CostPerMemory: 0.05, CostPerStorage: 0.004, CostPerBandwidth: 0.05, CostPerProcessing: 3}, mkHosts(0, nHosts))
	dc1 := NewDatacenter(1, "dc1", Characteristics{CostPerMemory: 0.01, CostPerStorage: 0.001, CostPerBandwidth: 0.01, CostPerProcessing: 3}, mkHosts(nHosts, nHosts))
	env := &Environment{Datacenters: []*Datacenter{dc0, dc1}}
	for i := 0; i < nVMs; i++ {
		env.VMs = append(env.VMs, NewVM(i, mips, 1, 512, 500, 5000))
	}
	if err := Allocate(env.Hosts(), env.VMs); err != nil {
		t.Fatal(err)
	}
	return env
}

func TestEnvironmentValidate(t *testing.T) {
	env := testEnv(t, 8, 1000)
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
	// Unplaced VM must fail validation.
	env.VMs = append(env.VMs, NewVM(99, 1000, 1, 512, 500, 5000))
	if err := env.Validate(); err == nil {
		t.Fatal("expected validation error for unplaced VM")
	}
}

func TestEnvironmentHosts(t *testing.T) {
	env := testEnv(t, 4, 1000)
	want := len(env.Datacenters[0].Hosts) + len(env.Datacenters[1].Hosts)
	if got := len(env.Hosts()); got != want {
		t.Fatalf("hosts: got %d want %d", got, want)
	}
}

func TestExecuteRoundRobinBatch(t *testing.T) {
	env := testEnv(t, 4, 1000)
	const n = 40
	cloudlets := make([]*Cloudlet, n)
	vms := make([]*VM, n)
	for i := range cloudlets {
		cloudlets[i] = NewCloudlet(i, 250, 1, 0, 0)
		vms[i] = env.VMs[i%len(env.VMs)]
	}
	res, err := Execute(env, TimeSharedFactory, cloudlets, vms)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finished) != n {
		t.Fatalf("finished: %d", len(res.Finished))
	}
	// 10 cloudlets of 250 MI time-share each 1000-MIPS VM: all finish at 2.5s.
	if !almost(res.SimulationTime(), 2.5, 1e-9) {
		t.Fatalf("simulation time: %v", res.SimulationTime())
	}
	if res.MinStart != 0 {
		t.Fatalf("min start: %v", res.MinStart)
	}
	if res.TotalCost <= 0 {
		t.Fatalf("total cost: %v", res.TotalCost)
	}
	if res.EngineEvents == 0 {
		t.Fatal("no engine events recorded")
	}
}

func TestExecuteAssignmentMismatch(t *testing.T) {
	env := testEnv(t, 2, 1000)
	_, err := Execute(env, TimeSharedFactory, []*Cloudlet{NewCloudlet(0, 100, 1, 0, 0)}, nil)
	if err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestExecuteNilEntry(t *testing.T) {
	env := testEnv(t, 2, 1000)
	_, err := Execute(env, TimeSharedFactory, []*Cloudlet{nil}, []*VM{env.VMs[0]})
	if err == nil {
		t.Fatal("expected nil-entry error")
	}
}

func TestBrokerOnFinishHook(t *testing.T) {
	env := testEnv(t, 2, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	var hooked []int
	b.OnFinish(func(c *Cloudlet) { hooked = append(hooked, c.ID) })
	b.Submit(NewCloudlet(0, 100, 1, 0, 0), env.VMs[0])
	b.Submit(NewCloudlet(1, 200, 1, 0, 0), env.VMs[1])
	eng.Run()
	if len(hooked) != 2 {
		t.Fatalf("hook calls: %v", hooked)
	}
	if len(b.Finished()) != 2 {
		t.Fatalf("finished: %d", len(b.Finished()))
	}
}

// TakeFinished hands each completion out once and then forgets it.
func TestBrokerTakeFinished(t *testing.T) {
	env := testEnv(t, 2, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	b.Submit(NewCloudlet(0, 100, 1, 0, 0), env.VMs[0])
	b.Submit(NewCloudlet(1, 200, 1, 0, 0), env.VMs[1])
	eng.Run()
	if got := b.TakeFinished(); len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("first take: %v", got)
	}
	if got := b.TakeFinished(); len(got) != 0 {
		t.Fatalf("second take returned %d cloudlets again", len(got))
	}
	b.Submit(NewCloudlet(2, 100, 1, 0, 0), env.VMs[0])
	eng.Run()
	if got := b.Finished(); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("Finished after a take: %v", got)
	}
	if got := b.TakeFinished(); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("third take: %v", got)
	}
}

func TestBrokerDefaultFactory(t *testing.T) {
	env := testEnv(t, 1, 1000)
	eng := sim.NewEngine()
	NewBroker(eng, env, nil)
	if env.VMs[0].Scheduler() == nil {
		t.Fatal("default factory did not bind a scheduler")
	}
	if env.VMs[0].Scheduler().Name() != "time-shared" {
		t.Fatalf("default discipline: %s", env.VMs[0].Scheduler().Name())
	}
}

func TestBrokerSubmitUnboundPanics(t *testing.T) {
	env := testEnv(t, 1, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	loose := NewVM(77, 1000, 1, 512, 500, 5000) // never bound
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unbound VM")
		}
	}()
	b.Submit(NewCloudlet(0, 100, 1, 0, 0), loose)
}

func TestProcessingCost(t *testing.T) {
	hosts := []*Host{NewHost(0, NewPEs(2, 2000), 1<<16, 1<<20, 1<<30)}
	dc := NewDatacenter(0, "dc", Characteristics{
		CostPerMemory: 0.05, CostPerStorage: 0.004, CostPerBandwidth: 0.05, CostPerProcessing: 3,
	}, hosts)
	_ = dc
	vm := NewVM(0, 1000, 1, 512, 500, 5000)
	if err := hosts[0].Place(vm); err != nil {
		t.Fatal(err)
	}
	c := NewCloudlet(0, 2000, 1, 300, 300)
	// resource rate = .004*5000 + .05*512 + .05*500 = 20 + 25.6 + 25 = 70.6
	// cost = 70.6 * 2 + 3 * (2000/1000) = 141.2 + 6 = 147.2
	got := ProcessingCost(c, vm)
	if math.Abs(got-147.2) > 1e-9 {
		t.Fatalf("cost: got %v want 147.2", got)
	}
	if rate := ResourceCostRate(vm); math.Abs(rate-70.6) > 1e-9 {
		t.Fatalf("resource rate: %v", rate)
	}
}

func TestProcessingCostUnplacedVM(t *testing.T) {
	vm := NewVM(0, 1000, 1, 512, 500, 5000)
	if ProcessingCost(NewCloudlet(0, 100, 1, 0, 0), vm) != 0 {
		t.Fatal("unplaced VM should cost 0")
	}
	if ResourceCostRate(vm) != 0 {
		t.Fatal("unplaced VM rate should be 0")
	}
}

func TestTotalProcessingCost(t *testing.T) {
	env := testEnv(t, 2, 1000)
	a := NewCloudlet(0, 1000, 1, 0, 0)
	b := NewCloudlet(1, 1000, 1, 0, 0)
	a.VM, b.VM = env.VMs[0], env.VMs[1]
	want := ProcessingCost(a, a.VM) + ProcessingCost(b, b.VM)
	if got := TotalProcessingCost([]*Cloudlet{a, b}); math.Abs(got-want) > 1e-9 {
		t.Fatalf("total: got %v want %v", got, want)
	}
	// Cloudlets without a VM contribute nothing.
	if got := TotalProcessingCost([]*Cloudlet{NewCloudlet(9, 50, 1, 0, 0)}); got != 0 {
		t.Fatalf("no-VM total: %v", got)
	}
}

func TestCheaperDatacenterCostsLess(t *testing.T) {
	env := testEnv(t, 8, 1000) // dc0 expensive, dc1 cheap
	var vmExp, vmCheap *VM
	for _, vm := range env.VMs {
		switch vm.Datacenter().ID {
		case 0:
			vmExp = vm
		case 1:
			vmCheap = vm
		}
	}
	if vmExp == nil || vmCheap == nil {
		t.Fatal("allocation did not spread across datacenters")
	}
	c := NewCloudlet(0, 1000, 1, 0, 0)
	if ProcessingCost(c, vmCheap) >= ProcessingCost(c, vmExp) {
		t.Fatal("cheap datacenter not cheaper")
	}
}
