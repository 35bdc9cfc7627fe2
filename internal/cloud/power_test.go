package cloud

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPowerModels(t *testing.T) {
	lin := LinearPower{Idle: 100, Max: 300}
	if lin.Power(0) != 100 || lin.Power(1) != 300 || lin.Power(0.5) != 200 {
		t.Fatalf("linear: %v %v %v", lin.Power(0), lin.Power(1), lin.Power(0.5))
	}
}

func TestPowerModelsClamp(t *testing.T) {
	m := LinearPower{100, 300}
	if m.Power(-1) != 100 {
		t.Fatalf("below range: %v", m.Power(-1))
	}
	if m.Power(2) != 300 {
		t.Fatalf("above range: %v", m.Power(2))
	}
}

// TestPowerModelsMonotoneProperty: the model is non-decreasing in u.
func TestPowerModelsMonotoneProperty(t *testing.T) {
	m := LinearPower{50, 250}
	f := func(a, b uint16) bool {
		ua, ub := float64(a)/65535, float64(b)/65535
		if ua > ub {
			ua, ub = ub, ua
		}
		return m.Power(ua) <= m.Power(ub)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// energyEnv builds one single-host environment with two VMs.
func energyEnv(t *testing.T) *Environment {
	t.Helper()
	host := NewHost(0, NewPEs(2, 1000), 1<<16, 1<<20, 1<<30) // 2000 MIPS total
	dc := NewDatacenter(0, "dc", Characteristics{CostPerProcessing: 3}, []*Host{host})
	vms := []*VM{
		NewVM(0, 1000, 1, 512, 500, 5000),
		NewVM(1, 1000, 1, 512, 500, 5000),
	}
	for _, vm := range vms {
		if err := host.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	return &Environment{Datacenters: []*Datacenter{dc}, VMs: vms}
}

func TestHostEnergyAnalytic(t *testing.T) {
	env := energyEnv(t)
	// VM0 busy [0,10): host at 50% utilization. VM1 busy [5,10): 100% on
	// [5,10). Horizon 10.
	c0 := NewCloudlet(0, 100, 1, 0, 0)
	c0.VM, c0.StartTime, c0.FinishTime = env.VMs[0], 0, 10
	c1 := NewCloudlet(1, 100, 1, 0, 0)
	c1.VM, c1.StartTime, c1.FinishTime = env.VMs[1], 5, 10
	model := LinearPower{Idle: 100, Max: 300}
	rep, err := HostEnergy(env, []*Cloudlet{c0, c1}, model)
	if err != nil {
		t.Fatal(err)
	}
	// [0,5): u=.5 → 200 W × 5 s = 1000 J; [5,10): u=1 → 300 W × 5 = 1500 J.
	if math.Abs(rep.TotalJoules-2500) > 1e-9 {
		t.Fatalf("total joules: %v", rep.TotalJoules)
	}
	if rep.Horizon != 10 {
		t.Fatalf("horizon: %v", rep.Horizon)
	}
	host := env.Hosts()[0]
	if math.Abs(rep.PerHost[host]-2500) > 1e-9 {
		t.Fatalf("per-host: %v", rep.PerHost[host])
	}
}

func TestHostEnergyIdleDraw(t *testing.T) {
	env := energyEnv(t)
	// One cloudlet busy [2,4); horizon 4; idle before 2.
	c := NewCloudlet(0, 100, 1, 0, 0)
	c.VM, c.StartTime, c.FinishTime = env.VMs[0], 2, 4
	rep, err := HostEnergy(env, []*Cloudlet{c}, LinearPower{Idle: 100, Max: 300})
	if err != nil {
		t.Fatal(err)
	}
	// [0,2): idle 100 W × 2 = 200 J; [2,4): u=.5 → 200 × 2 = 400 J.
	if math.Abs(rep.TotalJoules-600) > 1e-9 {
		t.Fatalf("total: %v", rep.TotalJoules)
	}
}

func TestHostEnergyEndToEnd(t *testing.T) {
	env := testEnv(t, 4, 1000)
	cls := make([]*Cloudlet, 20)
	vms := make([]*VM, 20)
	for i := range cls {
		cls[i] = NewCloudlet(i, 500, 1, 0, 0)
		vms[i] = env.VMs[i%4]
	}
	res, err := Execute(env, TimeSharedFactory, cls, vms)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := HostEnergy(env, res.Finished, LinearPower{Idle: 50, Max: 200})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalJoules <= 0 {
		t.Fatalf("energy: %v", rep.TotalJoules)
	}
	// Lower bound: every host idling over the horizon.
	minJ := 50.0 * float64(rep.Horizon) * float64(len(env.Hosts()))
	if rep.TotalJoules < minJ {
		t.Fatalf("energy %v below idle floor %v", rep.TotalJoules, minJ)
	}
}

func TestHostEnergyErrors(t *testing.T) {
	env := energyEnv(t)
	orphan := NewCloudlet(0, 100, 1, 0, 0) // no VM
	if _, err := HostEnergy(env, []*Cloudlet{orphan}, LinearPower{100, 300}); err == nil {
		t.Fatal("unexecuted cloudlet accepted")
	}
}

func TestHostEnergyEmptyRun(t *testing.T) {
	env := energyEnv(t)
	rep, err := HostEnergy(env, nil, LinearPower{100, 300})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalJoules != 0 || rep.Horizon != 0 {
		t.Fatalf("empty run: %+v", rep)
	}
}

// TestHostEnergyBusyBeatsIdleProperty: for a fixed horizon, a run with any
// busy window consumes at least the idle-only energy.
func TestHostEnergyBusyBeatsIdleProperty(t *testing.T) {
	f := func(startRaw, lenRaw uint8) bool {
		env := energyEnv(t)
		start := float64(startRaw % 50)
		end := start + 1 + float64(lenRaw%50)
		c := NewCloudlet(0, 100, 1, 0, 0)
		c.VM, c.StartTime, c.FinishTime = env.VMs[0], start, end
		model := LinearPower{Idle: 10, Max: 100}
		rep, err := HostEnergy(env, []*Cloudlet{c}, model)
		if err != nil {
			return false
		}
		return rep.TotalJoules >= 10*float64(rep.Horizon)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
