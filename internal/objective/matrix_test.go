package objective_test

import (
	"math"
	"math/rand"
	"testing"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/objective"
	"bioschedsim/internal/schedtest"
)

func bits(x float64) uint64 { return math.Float64bits(x) }

// TestExecBitIdenticalAllModes is the layer's core contract: Exec (and Cost)
// must be bit-identical to the cloud model in every storage mode.
func TestExecBitIdenticalAllModes(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 9, 40, 1)
	modes := map[string]objective.Options{
		"auto":          {},
		"materialized":  {Mode: objective.Materialized, WithCost: true},
		"ondemand":      {Mode: objective.OnDemand, WithCost: true},
		"auto-fallback": {MaxCells: 1, WithCost: true},
	}
	for name, opts := range modes {
		mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, opts)
		if mx.N() != len(ctx.Cloudlets) || mx.M() != len(ctx.VMs) {
			t.Fatalf("%s: dims %dx%d", name, mx.N(), mx.M())
		}
		for i, c := range ctx.Cloudlets {
			for j, vm := range ctx.VMs {
				if got, want := mx.Exec(i, j), vm.EstimateExecTime(c); bits(got) != bits(want) {
					t.Fatalf("%s: Exec(%d,%d)=%v want %v", name, i, j, got, want)
				}
				if got, want := mx.Cost(i, j), cloud.ProcessingCost(c, vm); bits(got) != bits(want) {
					t.Fatalf("%s: Cost(%d,%d)=%v want %v", name, i, j, got, want)
				}
				if cl := mx.Class(j); bits(mx.ExecByClass(i, cl)) != bits(mx.Exec(i, j)) {
					t.Fatalf("%s: ExecByClass(%d,%d) disagrees with Exec(%d,%d)", name, i, cl, i, j)
				}
			}
		}
	}
}

func TestStorageModes(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 6, 20, 2)
	if mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{Mode: objective.OnDemand}); mx.Cached() {
		t.Fatal("OnDemand materialized")
	}
	if mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{MaxCells: 1}); mx.Cached() {
		t.Fatal("Auto ignored MaxCells")
	}
	if mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{Mode: objective.Materialized, MaxCells: 1}); !mx.Cached() {
		t.Fatal("Materialized respected MaxCells")
	}
	if mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{}); !mx.Cached() {
		t.Fatal("Auto did not materialize a tiny problem")
	}
}

// TestCompression checks the homogeneous fleet collapses to one class and
// the all-distinct heterogeneous fleet does not.
func TestCompression(t *testing.T) {
	hom := schedtest.Homogeneous(t, 12, 30, 3)
	mx := objective.NewMatrix(hom.Cloudlets, hom.VMs, objective.Options{})
	if mx.K() != 1 {
		t.Fatalf("homogeneous fleet: K=%d want 1", mx.K())
	}
	if !mx.Cached() {
		t.Fatal("homogeneous fleet should materialize")
	}
	het := schedtest.Heterogeneous(t, 7, 10, 4)
	if k := objective.NewMatrix(het.Cloudlets, het.VMs, objective.Options{}).K(); k != len(het.VMs) {
		t.Fatalf("distinct-MIPS fleet: K=%d want %d", k, len(het.VMs))
	}
}

// TestCostClassKey: VMs identical in capacity and bandwidth but priced by
// different datacenters share an exec class but must not share a cost class
// when the matrix is built WithCost.
func TestCostClassKey(t *testing.T) {
	mk := func(id int, ch cloud.Characteristics) *cloud.VM {
		h := cloud.NewHost(id, cloud.NewPEs(4, 1000), 1<<20, 1<<20, 1<<30)
		cloud.NewDatacenter(id, "dc", ch, []*cloud.Host{h})
		vm := cloud.NewVM(id, 1000, 1, 512, 500, 5000)
		if err := cloud.Allocate([]*cloud.Host{h}, []*cloud.VM{vm}); err != nil {
			t.Fatal(err)
		}
		return vm
	}
	vms := []*cloud.VM{
		mk(0, cloud.Characteristics{CostPerMemory: 0.05, CostPerProcessing: 3}),
		mk(1, cloud.Characteristics{CostPerMemory: 0.01, CostPerProcessing: 3}),
	}
	cls := []*cloud.Cloudlet{cloud.NewCloudlet(0, 4000, 1, 100, 100)}
	exec := objective.NewMatrix(cls, vms, objective.Options{})
	if exec.K() != 1 {
		t.Fatalf("exec partition: K=%d want 1", exec.K())
	}
	mx := objective.NewMatrix(cls, vms, objective.Options{WithCost: true})
	if mx.K() != 2 {
		t.Fatalf("cost partition: K=%d want 2", mx.K())
	}
	for j, vm := range vms {
		if got, want := mx.Cost(0, j), cloud.ProcessingCost(cls[0], vm); bits(got) != bits(want) {
			t.Fatalf("Cost(0,%d)=%v want %v", j, got, want)
		}
	}
	if mx.Cost(0, 0) == mx.Cost(0, 1) {
		t.Fatal("differently priced VMs produced identical cost")
	}
}

func TestNewMatrixPanics(t *testing.T) {
	ctx := schedtest.Homogeneous(t, 2, 2, 5)
	for name, call := range map[string]func(){
		"no-cloudlets": func() { objective.NewMatrix(nil, ctx.VMs, objective.Options{}) },
		"no-vms":       func() { objective.NewMatrix(ctx.Cloudlets, nil, objective.Options{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

func TestMakespanCostNorms(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 8, 60, 6)
	n, m := len(ctx.Cloudlets), len(ctx.VMs)
	for name, opts := range map[string]objective.Options{
		"cached":   {WithCost: true},
		"ondemand": {Mode: objective.OnDemand, WithCost: true},
	} {
		mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, opts)
		rnd := rand.New(rand.NewSource(7))
		pos := make([]int, n)
		for i := range pos {
			pos[i] = rnd.Intn(m)
		}
		busy := make([]float64, m)
		wantBusy := make([]float64, m)
		var wantCost float64
		for i, j := range pos {
			wantBusy[j] += ctx.VMs[j].EstimateExecTime(ctx.Cloudlets[i])
			wantCost += cloud.ProcessingCost(ctx.Cloudlets[i], ctx.VMs[j])
		}
		var wantMk float64
		for _, b := range wantBusy {
			if b > wantMk {
				wantMk = b
			}
		}
		if got := mx.MakespanOf(pos, busy); bits(got) != bits(wantMk) {
			t.Fatalf("%s: MakespanOf=%v want %v", name, got, wantMk)
		}
		if got := mx.CostOf(pos); bits(got) != bits(wantCost) {
			t.Fatalf("%s: CostOf=%v want %v", name, got, wantCost)
		}
		var wantNT, wantNC float64
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				wantNT += ctx.VMs[j].EstimateExecTime(ctx.Cloudlets[i])
				wantNC += cloud.ProcessingCost(ctx.Cloudlets[i], ctx.VMs[j])
			}
		}
		nt, nc := mx.Norms()
		if bits(nt) != bits(wantNT) || bits(nc) != bits(wantNC) {
			t.Fatalf("%s: Norms=(%v,%v) want (%v,%v)", name, nt, nc, wantNT, wantNC)
		}
	}
}

// TestNormsZeroLift: costless VMs (no datacenter) must lift the zero cost
// normalizer to 1 so Combined objectives can divide by it.
func TestNormsZeroLift(t *testing.T) {
	vms := []*cloud.VM{cloud.NewVM(0, 1000, 1, 512, 500, 5000)}
	cls := []*cloud.Cloudlet{cloud.NewCloudlet(0, 1000, 1, 0, 0)}
	_, nc := objective.NewMatrix(cls, vms, objective.Options{WithCost: true}).Norms()
	if nc != 1 {
		t.Fatalf("zero cost normalizer = %v, want lifted to 1", nc)
	}
}

func TestClassesHelpers(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 10, 5, 8)
	classes := objective.ClassesOf(ctx.VMs)
	if len(classes.Index) != len(ctx.VMs) || len(classes.Reps) != classes.K {
		t.Fatalf("inconsistent partition: %d VMs, %d reps, K=%d", len(classes.Index), len(classes.Reps), classes.K)
	}
	for j, vm := range ctx.VMs {
		rep := classes.Reps[classes.Index[j]]
		if rep.Capacity() != vm.Capacity() || rep.Bw != vm.Bw {
			t.Fatalf("VM %d classed with non-equivalent rep", j)
		}
	}
	buf := make([]float64, classes.K)
	for _, c := range ctx.Cloudlets {
		times := classes.ExecTimes(c, buf)
		for cl, rep := range classes.Reps {
			if bits(times[cl]) != bits(rep.EstimateExecTime(c)) {
				t.Fatalf("ExecTimes[%d] mismatch", cl)
			}
		}
		want := math.Inf(1)
		for _, vm := range ctx.VMs {
			if d := vm.EstimateExecTime(c); d < want {
				want = d
			}
		}
		if got := classes.MinExecTime(c); bits(got) != bits(want) {
			t.Fatalf("MinExecTime=%v want %v", got, want)
		}
	}
}

func TestVMLoadsAndEstimatedMakespan(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 5, 25, 9)
	rnd := rand.New(rand.NewSource(10))
	vms := make([]*cloud.VM, len(ctx.Cloudlets))
	for i := range vms {
		vms[i] = ctx.VMs[rnd.Intn(len(ctx.VMs))]
	}
	want := map[*cloud.VM]float64{}
	for i, c := range ctx.Cloudlets {
		want[vms[i]] += vms[i].EstimateExecTime(c)
	}
	got := objective.VMLoads(ctx.Cloudlets, vms)
	if len(got) != len(want) {
		t.Fatalf("VMLoads: %d VMs want %d", len(got), len(want))
	}
	var wantMk float64
	for vm, l := range want {
		if bits(got[vm]) != bits(l) {
			t.Fatalf("load of VM %d = %v want %v", vm.ID, got[vm], l)
		}
		if l > wantMk {
			wantMk = l
		}
	}
	if mk := objective.EstimatedMakespan(ctx.Cloudlets, vms); bits(mk) != bits(wantMk) {
		t.Fatalf("EstimatedMakespan=%v want %v", mk, wantMk)
	}
}
