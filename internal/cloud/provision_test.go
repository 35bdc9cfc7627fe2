package cloud

import (
	"testing"

	"bioschedsim/internal/sim"
)

func TestProvisionVMAddsCapacity(t *testing.T) {
	env := testEnv(t, 2, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	if b.Engine() != eng || b.Environment() != env {
		t.Fatal("accessors broken")
	}
	fresh := NewVM(50, 2000, 1, 512, 500, 5000)
	if err := b.ProvisionVM(fresh, nil, 0); err != nil {
		t.Fatal(err)
	}
	if fresh.Host == nil || fresh.Scheduler() == nil {
		t.Fatal("provisioned VM not placed or bound")
	}
	if len(env.VMs) != 3 {
		t.Fatalf("fleet: %d", len(env.VMs))
	}
	// It must execute work and report completions through the broker.
	b.Submit(NewCloudlet(0, 1000, 1, 0, 0), fresh)
	eng.Run()
	if len(b.Finished()) != 1 {
		t.Fatalf("finished: %d", len(b.Finished()))
	}
}

func TestProvisionVMErrors(t *testing.T) {
	env := testEnv(t, 1, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	if err := b.ProvisionVM(nil, nil, 0); err == nil {
		t.Fatal("nil VM accepted")
	}
	if err := b.ProvisionVM(env.VMs[0], nil, 0); err == nil {
		t.Fatal("already-placed VM accepted")
	}
	huge := NewVM(51, 1e12, 1, 512, 500, 5000)
	if err := b.ProvisionVM(huge, nil, 0); err == nil {
		t.Fatal("unplaceable VM accepted")
	}
}

func TestProvisionVMAfterBootDelay(t *testing.T) {
	env := testEnv(t, 1, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	vm := NewVM(60, 1000, 1, 512, 500, 5000)
	if err := b.ProvisionVM(vm, nil, 30); err != nil {
		t.Fatal(err)
	}
	// Capacity is reserved immediately but the VM is not live yet.
	if vm.Host == nil {
		t.Fatal("host not reserved at launch")
	}
	if len(env.VMs) != 1 || vm.Scheduler() != nil {
		t.Fatal("VM live before boot completed")
	}
	eng.RunUntil(29)
	if len(env.VMs) != 1 {
		t.Fatal("VM joined before boot delay elapsed")
	}
	eng.RunUntil(31)
	if len(env.VMs) != 2 || vm.Scheduler() == nil {
		t.Fatal("VM did not join after boot")
	}
	b.Submit(NewCloudlet(0, 1000, 1, 0, 0), vm)
	eng.Run()
	if len(b.Finished()) != 1 {
		t.Fatal("booted VM did not execute")
	}
}

func TestProvisionVMAfterErrors(t *testing.T) {
	env := testEnv(t, 1, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	vm := NewVM(61, 1000, 1, 512, 500, 5000)
	if err := b.ProvisionVM(vm, nil, -1); err == nil {
		t.Fatal("negative boot delay accepted")
	}
	if err := b.ProvisionVM(nil, nil, 1); err == nil {
		t.Fatal("nil VM accepted")
	}
	if err := b.ProvisionVM(env.VMs[0], nil, 1); err == nil {
		t.Fatal("placed VM accepted")
	}
	huge := NewVM(62, 1e12, 1, 512, 500, 5000)
	if err := b.ProvisionVM(huge, nil, 1); err == nil {
		t.Fatal("unplaceable VM accepted")
	}
	// Zero delay joins the fleet at once.
	instant := NewVM(63, 1000, 1, 512, 500, 5000)
	if err := b.ProvisionVM(instant, nil, 0); err != nil {
		t.Fatal(err)
	}
	if instant.Scheduler() == nil {
		t.Fatal("zero-delay provision not immediate")
	}
}

func TestDecommissionVMMigratesResidents(t *testing.T) {
	env := testEnv(t, 3, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	victim := env.VMs[0]
	b.Submit(NewCloudlet(0, 5000, 1, 0, 0), victim)
	b.Submit(NewCloudlet(1, 5000, 1, 0, 0), victim)
	eng.RunUntil(1)
	host := victim.Host
	if err := b.DecommissionVM(victim, nil); err != nil {
		t.Fatal(err)
	}
	if len(env.VMs) != 2 {
		t.Fatalf("fleet after decommission: %d", len(env.VMs))
	}
	if victim.Host != nil {
		t.Fatal("decommissioned VM still placed")
	}
	for _, vm := range host.VMs() {
		if vm == victim {
			t.Fatal("host still lists the VM")
		}
	}
	if b.Migrations() != 2 {
		t.Fatalf("migrations: %d", b.Migrations())
	}
	eng.Run()
	if len(b.Finished()) != 2 {
		t.Fatalf("finished: %d (work lost)", len(b.Finished()))
	}
}

func TestDecommissionVMErrors(t *testing.T) {
	env := testEnv(t, 1, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	foreign := NewVM(99, 1000, 1, 512, 500, 5000)
	if err := b.DecommissionVM(foreign, nil); err == nil {
		t.Fatal("foreign VM accepted")
	}
	// Last healthy VM must be refused and the fleet restored.
	if err := b.DecommissionVM(env.VMs[0], nil); err == nil {
		t.Fatal("last VM decommission accepted")
	}
	if len(env.VMs) != 1 {
		t.Fatalf("fleet not restored: %d", len(env.VMs))
	}
}

func TestSubmitAtNegativeDelayPanics(t *testing.T) {
	env := testEnv(t, 1, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.SubmitAt(NewCloudlet(0, 100, 1, 0, 0), env.VMs[0], -1)
}

func TestSchedulerNamesAndResident(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 1000, 2, 512, 500, 5000)
	ss := NewSpaceShared(eng, vm, nil)
	if ss.Name() != "space-shared" {
		t.Fatalf("name: %s", ss.Name())
	}
	if ss.Resident() != 0 {
		t.Fatalf("fresh resident: %d", ss.Resident())
	}
	vm.bind(ss)
	vm.Scheduler().Submit(NewCloudlet(0, 100, 1, 0, 0))
	vm.Scheduler().Submit(NewCloudlet(1, 100, 1, 0, 0))
	vm.Scheduler().Submit(NewCloudlet(2, 100, 1, 0, 0))
	if ss.Resident() != 3 { // 2 running + 1 queued
		t.Fatalf("resident: %d", ss.Resident())
	}
}

func TestNewSchedulersNilArgsPanic(t *testing.T) {
	vm := NewVM(0, 1000, 1, 512, 500, 5000)
	for name, fn := range map[string]func(){
		"time-shared nil engine":  func() { NewTimeShared(nil, vm, nil) },
		"space-shared nil engine": func() { NewSpaceShared(nil, vm, nil) },
		"time-shared nil vm":      func() { NewTimeShared(sim.NewEngine(), nil, nil) },
		"space-shared nil vm":     func() { NewSpaceShared(sim.NewEngine(), nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNewVMInvalidPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero mips": func() { NewVM(0, 0, 1, 512, 500, 5000) },
		"zero pes":  func() { NewVM(0, 1000, 0, 512, 500, 5000) },
		"no host":   func() { NewHost(0, nil, 1, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestVMQueuedOrRunningUnbound(t *testing.T) {
	vm := NewVM(0, 1000, 1, 512, 500, 5000)
	if vm.QueuedOrRunning() != 0 {
		t.Fatal("unbound VM should report 0 residents")
	}
	if vm.Scheduler() != nil {
		t.Fatal("unbound VM should have nil scheduler")
	}
}
