package elastic

import (
	"testing"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/sim"
)

// plant builds an environment with nVMs 1000-MIPS VMs on ample hosts.
func plant(t testing.TB, nVMs int) (*cloud.Environment, *sim.Engine, *cloud.Broker) {
	t.Helper()
	hosts := make([]*cloud.Host, 4)
	for i := range hosts {
		hosts[i] = cloud.NewHost(i, cloud.NewPEs(32, 4000), 1<<20, 1<<20, 1<<32)
	}
	cloud.NewDatacenter(0, "dc0", cloud.Characteristics{CostPerProcessing: 3}, hosts)
	env := &cloud.Environment{Datacenters: []*cloud.Datacenter{hosts[0].Datacenter}}
	for i := 0; i < nVMs; i++ {
		env.VMs = append(env.VMs, cloud.NewVM(i, 1000, 1, 512, 500, 5000))
	}
	if err := cloud.Allocate(hosts, env.VMs); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	broker := cloud.NewBroker(eng, env, cloud.TimeSharedFactory)
	return env, eng, broker
}

func defaultPolicy() Policy {
	return Policy{
		ScaleUpLoad:   4,
		ScaleDownLoad: 1,
		Interval:      1,
		MinVMs:        2,
		MaxVMs:        16,
		Template:      VMTemplate{MIPS: 1000, PEs: 1, RAM: 512, Bw: 500, Size: 5000},
	}
}

func TestPolicyValidate(t *testing.T) {
	if err := defaultPolicy().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Policy{
		func() Policy { p := defaultPolicy(); p.Interval = 0; return p }(),
		func() Policy { p := defaultPolicy(); p.ScaleUpLoad = 1; p.ScaleDownLoad = 2; return p }(),
		func() Policy { p := defaultPolicy(); p.MinVMs = 0; return p }(),
		func() Policy { p := defaultPolicy(); p.MaxVMs = 1; return p }(),
		func() Policy { p := defaultPolicy(); p.Template.MIPS = 0; return p }(),
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("bad policy %d accepted", i)
		}
	}
}

func TestActionString(t *testing.T) {
	if ScaleUp.String() != "scale-up" || ScaleDown.String() != "scale-down" {
		t.Fatal("action strings wrong")
	}
}

func TestAutoscalerScalesUpUnderBurst(t *testing.T) {
	env, eng, broker := plant(t, 2)
	as, err := New(broker, defaultPolicy(), cloud.TimeSharedFactory, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Flood the 2-VM fleet: 40 long cloudlets, ~20 per VM >> ScaleUpLoad 4.
	for i := 0; i < 40; i++ {
		broker.Submit(cloud.NewCloudlet(i, 20000, 1, 0, 0), env.VMs[i%2])
	}
	as.Start()
	eng.Run()
	if len(broker.Finished()) != 40 {
		t.Fatalf("finished: %d", len(broker.Finished()))
	}
	ups := 0
	for _, e := range as.Events() {
		if e.Act == ScaleUp {
			ups++
		}
	}
	if ups == 0 {
		t.Fatal("no scale-up under burst")
	}
	if len(env.VMs) <= 2 {
		t.Fatalf("fleet did not grow: %d", len(env.VMs))
	}
	if len(env.VMs) > 16 {
		t.Fatalf("fleet exceeded MaxVMs: %d", len(env.VMs))
	}
}

func TestAutoscalerScalesDownWhenIdle(t *testing.T) {
	env, eng, broker := plant(t, 6)
	p := defaultPolicy()
	p.MinVMs = 2
	as, err := New(broker, p, cloud.TimeSharedFactory, 100)
	if err != nil {
		t.Fatal(err)
	}
	// One lonely long cloudlet: average residency ~0.17 < ScaleDownLoad.
	broker.Submit(cloud.NewCloudlet(0, 50000, 1, 0, 0), env.VMs[0])
	as.Start()
	eng.Run()
	downs := 0
	for _, e := range as.Events() {
		if e.Act == ScaleDown {
			downs++
		}
	}
	if downs == 0 {
		t.Fatal("no scale-down while mostly idle")
	}
	if len(env.VMs) < p.MinVMs {
		t.Fatalf("fleet below MinVMs: %d", len(env.VMs))
	}
	if len(broker.Finished()) != 1 {
		t.Fatalf("work lost during scale-down: finished %d", len(broker.Finished()))
	}
}

func TestAutoscalerRespectsMax(t *testing.T) {
	env, eng, broker := plant(t, 2)
	p := defaultPolicy()
	p.MaxVMs = 3
	as, err := New(broker, p, cloud.TimeSharedFactory, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		broker.Submit(cloud.NewCloudlet(i, 30000, 1, 0, 0), env.VMs[i%2])
	}
	as.Start()
	eng.Run()
	if len(env.VMs) > 3 {
		t.Fatalf("MaxVMs violated: %d", len(env.VMs))
	}
}

func TestAutoscalerBootDelaySlowsRelief(t *testing.T) {
	run := func(boot sim.Time) float64 {
		env, eng, broker := plant(t, 2)
		p := defaultPolicy()
		p.BootDelay = boot
		as, err := New(broker, p, cloud.TimeSharedFactory, 100)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			broker.Submit(cloud.NewCloudlet(i, 20000, 1, 0, 0), env.VMs[i%2])
		}
		as.Start()
		eng.Run()
		if len(broker.Finished()) != 40 {
			t.Fatalf("finished %d of 40", len(broker.Finished()))
		}
		var max sim.Time
		for _, c := range broker.Finished() {
			if c.FinishTime > max {
				max = c.FinishTime
			}
		}
		return max
	}
	instant := run(0)
	slow := run(200)
	if slow <= instant {
		t.Fatalf("makespan with 200 s boot delay (%v) should exceed instant boot (%v)", slow, instant)
	}
}

func TestAutoscalerReducesMakespan(t *testing.T) {
	run := func(scale bool) float64 {
		env, eng, broker := plant(t, 2)
		if scale {
			as, err := New(broker, defaultPolicy(), cloud.TimeSharedFactory, 100)
			if err != nil {
				t.Fatal(err)
			}
			as.Start()
		}
		for i := 0; i < 40; i++ {
			broker.Submit(cloud.NewCloudlet(i, 20000, 1, 0, 0), env.VMs[i%2])
		}
		eng.Run()
		var max sim.Time
		for _, c := range broker.Finished() {
			if c.FinishTime > max {
				max = c.FinishTime
			}
		}
		return max
	}
	static := run(false)
	scaled := run(true)
	if scaled >= static*0.8 {
		t.Fatalf("autoscaler+rebalance makespan %v not clearly below static %v", scaled, static)
	}
}

func TestPolicyRejectsNegativeBootDelay(t *testing.T) {
	p := defaultPolicy()
	p.BootDelay = -1
	if p.Validate() == nil {
		t.Fatal("negative boot delay accepted")
	}
}

func TestNewRejectsBadPolicy(t *testing.T) {
	_, eng, broker := plant(t, 2)
	_ = eng
	p := defaultPolicy()
	p.Interval = -1
	if _, err := New(broker, p, nil, 0); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestProvisionedVMsReceiveWork(t *testing.T) {
	env, eng, broker := plant(t, 2)
	as, err := New(broker, defaultPolicy(), cloud.TimeSharedFactory, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Steady drip of arrivals so newly provisioned VMs can pick up later
	// submissions through least-loaded online placement.
	for i := 0; i < 60; i++ {
		c := cloud.NewCloudlet(i, 10000, 1, 0, 0)
		at := sim.Time(i) * 0.2
		eng.ScheduleAt(at, sim.PriorityAcquire, func() {
			vms := env.VMs
			best := vms[0]
			for _, vm := range vms[1:] {
				if vm.QueuedOrRunning() < best.QueuedOrRunning() {
					best = vm
				}
			}
			broker.Submit(c, best)
		})
	}
	as.Start()
	eng.Run()
	if len(broker.Finished()) != 60 {
		t.Fatalf("finished: %d", len(broker.Finished()))
	}
	usedProvisioned := false
	for _, c := range broker.Finished() {
		if c.VM.ID >= 100 {
			usedProvisioned = true
			break
		}
	}
	if !usedProvisioned {
		t.Fatal("no provisioned VM ever received work")
	}
}

// TestMonitorSurvivesIdleGap pins the open-arrival contract: a second burst
// scheduled after an idle gap must still be monitored when the policy
// declares a MonitorUntil horizon — and, the old batch behavior, monitoring
// must die at the first drained tick without one.
func TestMonitorSurvivesIdleGap(t *testing.T) {
	burst := func(monitorUntil sim.Time) int {
		env, eng, broker := plant(t, 2)
		pol := defaultPolicy()
		pol.MonitorUntil = monitorUntil
		as, err := New(broker, pol, cloud.TimeSharedFactory, 100)
		if err != nil {
			t.Fatal(err)
		}
		// One trivial cloudlet at t=0, then nothing until a 40-cloudlet
		// burst at t=10 — the fleet is fully drained at every tick between.
		eng.ScheduleAt(0, sim.PriorityAcquire, func() {
			broker.Submit(cloud.NewCloudlet(0, 100, 1, 0, 0), env.VMs[0])
		})
		for i := 1; i <= 40; i++ {
			c := cloud.NewCloudlet(i, 20000, 1, 0, 0)
			vm := env.VMs[i%2]
			eng.ScheduleAt(10, sim.PriorityAcquire, func() { broker.Submit(c, vm) })
		}
		as.Start()
		eng.Run()
		if got := len(broker.Finished()); got != 41 {
			t.Fatalf("finished: %d, want 41", got)
		}
		ups := 0
		for _, ev := range as.Events() {
			if ev.Act == ScaleUp {
				ups++
			}
		}
		return ups
	}
	if ups := burst(10); ups == 0 {
		t.Fatal("MonitorUntil=10: burst after the idle gap saw no scale-ups — monitoring died at a drained tick")
	}
	if ups := burst(0); ups != 0 {
		t.Fatalf("MonitorUntil=0 (batch behavior): %d scale-ups after monitoring should have stopped", ups)
	}
}
