package online

import (
	"math"
	"math/rand"
	"testing"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/objective"
	"bioschedsim/internal/sim"
	"bioschedsim/internal/workload"
)

// classEFT is EarliestFinish as it was before residency became a VM field,
// kept as the oracle for the one-pass Place. It prices a cloudlet once per
// VM exec-equivalence class (objective.Classes, rebuilt whenever the fleet
// slice changes) and reads each VM's residency through its bound
// scheduler.
type classEFT struct {
	fleet []*cloud.VM
	cls   *objective.Classes
	buf   []float64
}

func (*classEFT) Name() string { return "online-eft-classes" }

func (s *classEFT) Place(c *cloud.Cloudlet, vms []*cloud.VM) (*cloud.VM, error) {
	if !sameFleet(s.fleet, vms) {
		s.cls = objective.ClassesOf(vms)
		s.buf = make([]float64, s.cls.K)
		s.fleet = append(s.fleet[:0], vms...)
	}
	times := s.cls.ExecTimes(c, s.buf)
	best := vms[0]
	bestETA := math.Inf(1)
	for i, vm := range vms {
		eta := float64(vm.Scheduler().Resident()+1) * times[s.cls.Index[i]]
		if eta < bestETA {
			best, bestETA = vm, eta
		}
	}
	return best, nil
}

func sameFleet(a, b []*cloud.VM) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// placeBoth places c with the one-pass policy and the class oracle and
// fails the test on any disagreement.
func placeBoth(t *testing.T, eft *EarliestFinish, oracle *classEFT, c *cloud.Cloudlet, vms []*cloud.VM) *cloud.VM {
	t.Helper()
	got, err := eft.Place(c, vms)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Place(c, vms)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cloudlet %d (length %v, file %v): Place chose VM %d, class oracle VM %d",
			c.ID, c.Length, c.FileSize, got.ID, want.ID)
	}
	return got
}

// fuzzFleet decodes one VM per byte (at most 16): two bits pick the MIPS,
// one the PE count (1000×2 and 2000×1 share a capacity, so classes repeat
// across shapes), two the bandwidth (0 included, which drops the staging
// term) and three the number of cloudlets resident on it. The VMs are
// bound to a time-shared broker whose engine never runs.
func fuzzFleet(spec []byte) ([]*cloud.VM, *cloud.Broker) {
	mips := [4]float64{500, 1000, 2000, 333.25}
	bws := [4]float64{0, 10, 1000, 0.5}
	if len(spec) == 0 {
		spec = []byte{0}
	}
	if len(spec) > 16 {
		spec = spec[:16]
	}
	env := &cloud.Environment{}
	for i, v := range spec {
		env.VMs = append(env.VMs, cloud.NewVM(i, mips[v&3], 1+int(v>>2&1), 512, bws[v>>3&3], 1000))
	}
	b := cloud.NewBroker(sim.NewEngine(), env, cloud.TimeSharedFactory)
	id := 1 << 20
	for i, v := range spec {
		for r := 0; r < int(v>>5); r++ {
			b.Submit(cloud.NewCloudlet(id, 1e9, 1, 0, 0), env.VMs[i])
			id++
		}
	}
	return env.VMs, b
}

// FuzzEFTPlace checks the one-pass EarliestFinish against the class
// oracle on fuzzed fleets, residencies and cloudlets. Each input places
// three cloudlets in turn, each submitted to the VM it was placed on, so
// the later placements see the residency the earlier ones changed.
func FuzzEFTPlace(f *testing.F) {
	f.Add([]byte{0}, 1000.0, 0.0)                                           // a single VM
	f.Add([]byte{0x05, 0x02, 0x05, 0x02}, 2000.0, 0.0)                      // K < M, exact ties on idle VMs
	f.Add([]byte{0x01, 0x26, 0x08, 0x10, 0x29, 0xff, 0x00}, 12345.0, 300.0) // mixed Bw and residency
	f.Add([]byte{0x00, 0x21}, 1000.0, 0.0)                                  // 2·L/1000 ties L/500
	f.Add([]byte{0x18, 0x08, 0x10}, 5.0, math.Inf(1))
	f.Add([]byte{0x0a, 0x12}, 700.0, math.NaN())
	f.Fuzz(func(t *testing.T, spec []byte, length, fileSize float64) {
		if length <= 0 {
			length = 1 - length // NewCloudlet rejects non-positive lengths
		}
		vms, b := fuzzFleet(spec)
		eft, oracle := NewEarliestFinish(), &classEFT{}
		for i := 0; i < 3; i++ {
			c := cloud.NewCloudlet(i, length, 1, fileSize, 0)
			b.Submit(c, placeBoth(t, eft, oracle, c, vms))
		}
	})
}

// TestEFTPlaceMatchesClassOracleAcrossFleetChanges places a stream of
// arrivals while the fleet grows (ProvisionVM, one VM of an existing class
// and one of a new class) and shrinks (DecommissionVM), with the engine
// running between placements so that completions change residency too.
// Both policies keep their state across the changes. It then replays a
// whole workload through each and compares every placement and finish
// time bit for bit.
func TestEFTPlaceMatchesClassOracleAcrossFleetChanges(t *testing.T) {
	s, err := workload.Heterogeneous(12, 240, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	env := s.Env
	eng := sim.NewEngine()
	b := cloud.NewBroker(eng, env, cloud.TimeSharedFactory)
	eft, oracle := NewEarliestFinish(), &classEFT{}
	src := env.VMs[3]
	steps := map[int]func(){
		40: func() {
			twin := cloud.NewVM(100, src.MIPS, src.PEs, src.RAM, src.Bw, src.Size)
			if err := b.ProvisionVM(twin, nil, 0); err != nil {
				t.Fatal(err)
			}
		},
		80: func() {
			if err := b.ProvisionVM(cloud.NewVM(101, 777, 3, 512, 0, 1000), nil, 0); err != nil {
				t.Fatal(err)
			}
		},
		120: func() {
			if err := b.DecommissionVM(env.VMs[0], nil); err != nil {
				t.Fatal(err)
			}
		},
		160: func() {
			if err := b.DecommissionVM(env.VMs[len(env.VMs)-1], nil); err != nil {
				t.Fatal(err)
			}
		},
	}
	for i, c := range s.Cloudlets {
		if step, ok := steps[i]; ok {
			step()
		}
		eng.RunUntil(float64(i) * 0.05)
		b.Submit(c, placeBoth(t, eft, oracle, c, env.VMs))
	}
	eng.Run()
	if got := len(b.Finished()); got != len(s.Cloudlets) {
		t.Fatalf("finished %d of %d", got, len(s.Cloudlets))
	}

	run := func(policy Scheduler) *Result {
		env, cls := hetEnv(t, 10, 400, 9)
		res, err := Run(env, policy, cls, uniformArrivals(len(cls), 0.02), cloud.TimeSharedFactory)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	got, want := run(NewEarliestFinish()), run(&classEFT{})
	if len(got.Finished) != len(want.Finished) {
		t.Fatalf("finished %d, oracle %d", len(got.Finished), len(want.Finished))
	}
	for i, c := range got.Finished {
		o := want.Finished[i]
		if c.ID != o.ID || c.VM.ID != o.VM.ID || math.Float64bits(c.FinishTime) != math.Float64bits(o.FinishTime) {
			t.Fatalf("finish %d: cloudlet %d on VM %d at %v, oracle cloudlet %d on VM %d at %v",
				i, c.ID, c.VM.ID, c.FinishTime, o.ID, o.VM.ID, o.FinishTime)
		}
	}
}

// TestStochasticPlaceAllocatesNothing pins the reused roulette rows: once
// a policy has seen the fleet, a placement allocates nothing.
func TestStochasticPlaceAllocatesNothing(t *testing.T) {
	vms, c := placeFixture(t)
	for _, name := range []string{"online-aco", "online-hbo", "online-eft", "online-least"} {
		p, err := NewPolicy(name, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		seedFeedback(p, vms)
		if allocs := testing.AllocsPerRun(200, func() { p.Place(c, vms) }); allocs != 0 {
			t.Errorf("%s: %v allocs per Place, want 0", name, allocs)
		}
	}
}
