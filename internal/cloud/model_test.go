package cloud

import (
	"strings"
	"testing"
)

func TestNewPEs(t *testing.T) {
	pes := NewPEs(4, 250)
	if len(pes) != 4 {
		t.Fatalf("len: %d", len(pes))
	}
	if TotalMIPS(pes) != 1000 {
		t.Fatalf("total: %v", TotalMIPS(pes))
	}
}

func TestNewPEsInvalidPanics(t *testing.T) {
	for _, tc := range []struct {
		n    int
		mips float64
	}{{0, 100}, {-1, 100}, {1, 0}, {1, -5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPEs(%d, %v) did not panic", tc.n, tc.mips)
				}
			}()
			NewPEs(tc.n, tc.mips)
		}()
	}
}

func TestCloudletAccessors(t *testing.T) {
	c := NewCloudlet(7, 250, 1, 300, 300)
	if c.Remaining() != 250 {
		t.Fatalf("remaining: %v", c.Remaining())
	}
	if c.Status != CloudletCreated {
		t.Fatalf("status: %v", c.Status)
	}
	c.SubmitTime, c.StartTime, c.FinishTime = 1, 3, 10
	if c.WaitTime() != 2 || c.ExecTime() != 7 {
		t.Fatalf("wait %v exec %v", c.WaitTime(), c.ExecTime())
	}
}

func TestCloudletInvalidPanics(t *testing.T) {
	func() {
		defer func() { _ = recover() }()
		NewCloudlet(0, 0, 1, 0, 0)
		t.Error("zero length did not panic")
	}()
	func() {
		defer func() { _ = recover() }()
		NewCloudlet(0, 100, 0, 0, 0)
		t.Error("zero PEs did not panic")
	}()
}

func TestCloudletStatusString(t *testing.T) {
	cases := map[CloudletStatus]string{
		CloudletCreated:   "created",
		CloudletQueued:    "queued",
		CloudletRunning:   "running",
		CloudletFinished:  "finished",
		CloudletStatus(9): "CloudletStatus(9)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d: got %q want %q", int(s), s.String(), want)
		}
	}
}

func TestVMCapacityAndEstimate(t *testing.T) {
	vm := NewVM(1, 500, 2, 512, 500, 5000)
	if vm.Capacity() != 1000 {
		t.Fatalf("capacity: %v", vm.Capacity())
	}
	c := NewCloudlet(0, 2000, 1, 500, 0)
	// 2000 MI / 1000 MIPS = 2 s, plus 500 MB / 500 Mbps = 1 s staging.
	if got := vm.EstimateExecTime(c); got != 3 {
		t.Fatalf("estimate: %v", got)
	}
}

func TestVMEstimateZeroBandwidth(t *testing.T) {
	vm := NewVM(1, 1000, 1, 512, 0, 5000)
	c := NewCloudlet(0, 1000, 1, 500, 0)
	if got := vm.EstimateExecTime(c); got != 1 {
		t.Fatalf("estimate without bw term: %v", got)
	}
}

func TestHostPlaceEvict(t *testing.T) {
	h := NewHost(0, NewPEs(4, 1000), 4096, 10000, 1<<20)
	vm := NewVM(0, 1000, 1, 512, 500, 5000)
	if err := h.Place(vm); err != nil {
		t.Fatal(err)
	}
	if vm.Host != h || len(h.VMs()) != 1 {
		t.Fatal("placement not recorded")
	}
	if h.AvailableMIPS() != 3000 {
		t.Fatalf("available MIPS: %v", h.AvailableMIPS())
	}
	if h.AvailableRAM() != 4096-512 {
		t.Fatalf("available RAM: %v", h.AvailableRAM())
	}
	if err := h.Evict(vm); err != nil {
		t.Fatal(err)
	}
	if vm.Host != nil || len(h.VMs()) != 0 || h.AvailableMIPS() != 4000 {
		t.Fatal("eviction incomplete")
	}
}

func TestHostRejectsOverCapacity(t *testing.T) {
	h := NewHost(0, NewPEs(1, 1000), 1024, 1000, 10000)
	big := NewVM(0, 2000, 1, 512, 500, 5000)
	if h.CanHost(big) {
		t.Fatal("CanHost over-capacity VM")
	}
	if err := h.Place(big); err == nil {
		t.Fatal("Place succeeded over capacity")
	}
}

func TestHostDoublePlaceFails(t *testing.T) {
	h1 := NewHost(0, NewPEs(2, 1000), 4096, 10000, 1<<20)
	h2 := NewHost(1, NewPEs(2, 1000), 4096, 10000, 1<<20)
	vm := NewVM(0, 1000, 1, 512, 500, 5000)
	if err := h1.Place(vm); err != nil {
		t.Fatal(err)
	}
	if err := h2.Place(vm); err == nil {
		t.Fatal("second placement should fail")
	}
}

func TestHostEvictAbsentFails(t *testing.T) {
	h := NewHost(0, NewPEs(1, 1000), 1024, 1000, 10000)
	vm := NewVM(0, 500, 1, 512, 500, 5000)
	if err := h.Evict(vm); err == nil {
		t.Fatal("evicting absent VM should fail")
	}
}

func TestDatacenterOwnership(t *testing.T) {
	hosts := []*Host{NewHost(0, NewPEs(1, 1000), 1024, 1000, 10000)}
	dc := NewDatacenter(0, "dc0", Characteristics{CostPerProcessing: 3}, hosts)
	if hosts[0].Datacenter != dc {
		t.Fatal("host not linked to datacenter")
	}
	vm := NewVM(0, 500, 1, 256, 100, 1000)
	if err := hosts[0].Place(vm); err != nil {
		t.Fatal(err)
	}
	if vm.Datacenter() != dc {
		t.Fatal("VM datacenter lookup failed")
	}
}

func TestDatacenterDoubleOwnershipPanics(t *testing.T) {
	h := NewHost(0, NewPEs(1, 1000), 1024, 1000, 10000)
	NewDatacenter(0, "a", Characteristics{}, []*Host{h})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double ownership")
		}
	}()
	NewDatacenter(1, "b", Characteristics{}, []*Host{h})
}

// TestAllocationPolicies: the one placement rule takes the host with the
// most available MIPS among those that can fit the VM; a host short of RAM
// is passed over however much CPU it has left.
func TestAllocationPolicies(t *testing.T) {
	mk := func(ram1 float64) []*Host {
		return []*Host{
			NewHost(0, NewPEs(1, 1000), 4096, 10000, 1<<20),
			NewHost(1, NewPEs(1, 3000), ram1, 10000, 1<<20),
			NewHost(2, NewPEs(1, 2000), 4096, 10000, 1<<20),
		}
	}
	for _, tc := range []struct {
		ram1 float64
		want int
	}{{4096, 1}, {256, 2}} {
		vm := NewVM(0, 900, 1, 512, 500, 5000)
		if err := Allocate(mk(tc.ram1), []*VM{vm}); err != nil {
			t.Fatal(err)
		}
		if vm.Host.ID != tc.want {
			t.Fatalf("host 1 RAM %v: least-loaded picked host %d, want %d", tc.ram1, vm.Host.ID, tc.want)
		}
	}
}

func TestAllocateAtomicFailure(t *testing.T) {
	hosts := []*Host{NewHost(0, NewPEs(1, 1000), 4096, 10000, 1<<20)}
	vms := []*VM{
		NewVM(0, 600, 1, 512, 500, 5000),
		NewVM(1, 600, 1, 512, 500, 5000), // does not fit after the first
	}
	err := Allocate(hosts, vms)
	if err == nil {
		t.Fatal("expected allocation failure")
	}
	if !strings.Contains(err.Error(), "no host for VM 1") {
		t.Fatalf("error: %v", err)
	}
	if len(hosts[0].VMs()) != 0 {
		t.Fatal("failed allocation left VMs placed")
	}
	if vms[0].Host != nil {
		t.Fatal("rollback did not clear VM host")
	}
}

func TestAllocateSuccess(t *testing.T) {
	hosts := []*Host{
		NewHost(0, NewPEs(2, 1000), 4096, 10000, 1<<20),
		NewHost(1, NewPEs(2, 1000), 4096, 10000, 1<<20),
	}
	vms := make([]*VM, 4)
	for i := range vms {
		vms[i] = NewVM(i, 900, 1, 512, 500, 5000)
	}
	if err := Allocate(hosts, vms); err != nil {
		t.Fatal(err)
	}
	if len(hosts[0].VMs()) != 2 || len(hosts[1].VMs()) != 2 {
		t.Fatalf("spread: %d/%d", len(hosts[0].VMs()), len(hosts[1].VMs()))
	}
}
