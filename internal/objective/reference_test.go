package objective

import (
	"strings"
	"testing"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/xrand"
)

// refProblem builds a small heterogeneous problem with pricing so both the
// makespan and the cost sides of the oracle are exercised.
func refProblem(tb testing.TB, nVMs, nCls int, seed uint64) ([]*cloud.Cloudlet, []*cloud.VM) {
	tb.Helper()
	r := xrand.New(seed, 0)
	hosts := make([]*cloud.Host, nVMs/4+1)
	for i := range hosts {
		hosts[i] = cloud.NewHost(i, cloud.NewPEs(16, 4000), 1<<20, 1<<20, 1<<30)
	}
	// NewDatacenter wires Host.Datacenter, which ProcessingCost prices by.
	cloud.NewDatacenter(0, "dc", cloud.Characteristics{
		CostPerMemory: 0.05, CostPerStorage: 0.004, CostPerBandwidth: 0.05, CostPerProcessing: 3,
	}, hosts)
	vms := make([]*cloud.VM, nVMs)
	for i := range vms {
		vms[i] = cloud.NewVM(i, 500+r.Float64()*3500, 1, 512, 500, 5000)
	}
	if err := cloud.Allocate(hosts, vms); err != nil {
		tb.Fatal(err)
	}
	cls := make([]*cloud.Cloudlet, nCls)
	for i := range cls {
		cls[i] = cloud.NewCloudlet(i, 1000+r.Float64()*19000, 1, 300, 300)
	}
	return cls, vms
}

func TestVerifyAgainstReferenceAgreesOnRandomAssignments(t *testing.T) {
	cls, vms := refProblem(t, 7, 60, 11)
	for _, opts := range []Options{
		{},
		{Mode: OnDemand},
		{WithCost: true},
		{Mode: OnDemand, WithCost: true},
	} {
		mx := NewMatrix(cls, vms, opts)
		r := xrand.New(12, 1)
		for trial := 0; trial < 25; trial++ {
			pos := make([]int, len(cls))
			for i := range pos {
				pos[i] = r.Intn(len(vms))
			}
			if err := VerifyAgainstReference(mx, pos, 1e-9); err != nil {
				t.Fatalf("opts %+v trial %d: %v", opts, trial, err)
			}
		}
	}
}

func TestVerifyAgainstReferenceRejectsMalformedVectors(t *testing.T) {
	cls, vms := refProblem(t, 4, 10, 3)
	mx := NewMatrix(cls, vms, Options{})
	if err := VerifyAgainstReference(mx, make([]int, 3), 1e-9); err == nil {
		t.Fatal("short assignment vector accepted")
	}
	bad := make([]int, len(cls))
	bad[5] = len(vms) // out of range
	if err := VerifyAgainstReference(mx, bad, 1e-9); err == nil {
		t.Fatal("out-of-range VM index accepted")
	} else if !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestReferenceMakespanMatchesEstimatedMakespan(t *testing.T) {
	cls, vms := refProblem(t, 5, 40, 7)
	r := xrand.New(99, 0)
	pos := make([]int, len(cls))
	pairedVMs := make([]*cloud.VM, len(cls))
	for i := range pos {
		pos[i] = r.Intn(len(vms))
		pairedVMs[i] = vms[pos[i]]
	}
	ref := ReferenceMakespan(cls, vms, pos)
	est := EstimatedMakespan(cls, pairedVMs)
	if d := relDiff(ref, est); d > 1e-12 {
		t.Fatalf("ReferenceMakespan %v != EstimatedMakespan %v (rel %v)", ref, est, d)
	}
}
