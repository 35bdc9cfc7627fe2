package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bioschedsim/internal/cloud"
)

// hetCtx builds a heterogeneous scheduling context: nVMs VMs with MIPS
// spread over [500,4000] placed across two datacenters with different
// prices, and nCls cloudlets with lengths spread over [1000,20000].
func hetCtx(t testing.TB, nVMs, nCls int, seed int64) *Context {
	t.Helper()
	mkHosts := func(base, n int) []*cloud.Host {
		hosts := make([]*cloud.Host, n)
		for i := range hosts {
			hosts[i] = cloud.NewHost(base+i, cloud.NewPEs(16, 4000), 1<<20, 1<<20, 1<<30)
		}
		return hosts
	}
	nh := nVMs/8 + 1
	dcs := []*cloud.Datacenter{
		cloud.NewDatacenter(0, "pricey", cloud.Characteristics{CostPerMemory: 0.05, CostPerStorage: 0.004, CostPerBandwidth: 0.05, CostPerProcessing: 3}, mkHosts(0, nh)),
		cloud.NewDatacenter(1, "cheap", cloud.Characteristics{CostPerMemory: 0.01, CostPerStorage: 0.001, CostPerBandwidth: 0.01, CostPerProcessing: 3}, mkHosts(nh, nh)),
	}
	r := rand.New(rand.NewSource(seed))
	vms := make([]*cloud.VM, nVMs)
	for i := range vms {
		vms[i] = cloud.NewVM(i, 500+r.Float64()*3500, 1, 512, 500, 5000)
	}
	var hosts []*cloud.Host
	for _, dc := range dcs {
		hosts = append(hosts, dc.Hosts...)
	}
	if err := cloud.Allocate(hosts, vms); err != nil {
		t.Fatal(err)
	}
	cls := make([]*cloud.Cloudlet, nCls)
	for i := range cls {
		cls[i] = cloud.NewCloudlet(i, 1000+r.Float64()*19000, 1, 300, 300)
	}
	return &Context{Cloudlets: cls, VMs: vms, Datacenters: dcs, Rand: rand.New(rand.NewSource(seed + 1))}
}

// homCtx builds a homogeneous context: identical VMs and cloudlets.
func homCtx(t testing.TB, nVMs, nCls int) *Context {
	t.Helper()
	hosts := []*cloud.Host{cloud.NewHost(0, cloud.NewPEs(nVMs, 1000), 1<<30, 1<<30, 1<<40)}
	dc := cloud.NewDatacenter(0, "dc", cloud.Characteristics{CostPerMemory: 0.05, CostPerStorage: 0.004, CostPerBandwidth: 0.05, CostPerProcessing: 3}, hosts)
	vms := make([]*cloud.VM, nVMs)
	for i := range vms {
		vms[i] = cloud.NewVM(i, 1000, 1, 512, 500, 5000)
	}
	if err := cloud.Allocate(hosts, vms); err != nil {
		t.Fatal(err)
	}
	cls := make([]*cloud.Cloudlet, nCls)
	for i := range cls {
		cls[i] = cloud.NewCloudlet(i, 250, 1, 300, 300)
	}
	return &Context{Cloudlets: cls, VMs: vms, Datacenters: []*cloud.Datacenter{dc}, Rand: rand.New(rand.NewSource(7))}
}

func TestContextValidate(t *testing.T) {
	ctx := homCtx(t, 2, 4)
	if err := ctx.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&Context{VMs: ctx.VMs}).Validate(); err == nil {
		t.Fatal("empty cloudlets accepted")
	}
	if err := (&Context{Cloudlets: ctx.Cloudlets}).Validate(); err == nil {
		t.Fatal("empty VMs accepted")
	}
	bad := homCtx(t, 2, 4)
	bad.Cloudlets[1] = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("nil cloudlet accepted")
	}
	bad2 := homCtx(t, 2, 4)
	bad2.VMs[0] = nil
	if err := bad2.Validate(); err == nil {
		t.Fatal("nil VM accepted")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	ctx := homCtx(t, 3, 10)
	got, err := NewRoundRobin().Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateAssignments(ctx, got); err != nil {
		t.Fatal(err)
	}
	for i, a := range got {
		if a.VM != ctx.VMs[i%3] {
			t.Fatalf("assignment %d: VM %d, want %d", i, a.VM.ID, ctx.VMs[i%3].ID)
		}
	}
}

func TestRoundRobinBalancedCounts(t *testing.T) {
	ctx := homCtx(t, 4, 40)
	got, _ := NewRoundRobin().Schedule(ctx)
	counts := map[*cloud.VM]int{}
	for _, a := range got {
		counts[a.VM]++
	}
	for vm, n := range counts {
		if n != 10 {
			t.Fatalf("VM %d received %d cloudlets, want 10", vm.ID, n)
		}
	}
}

func TestRandomCoversAndSeeds(t *testing.T) {
	ctx := hetCtx(t, 10, 200, 3)
	got, err := NewRandom().Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateAssignments(ctx, got); err != nil {
		t.Fatal(err)
	}
	// Same seed ⇒ same assignment.
	ctx2 := hetCtx(t, 10, 200, 3)
	got2, _ := NewRandom().Schedule(ctx2)
	for i := range got {
		if got[i].VM.ID != got2[i].VM.ID {
			t.Fatalf("random scheduler not reproducible at %d", i)
		}
	}
}

func TestRandomRequiresRand(t *testing.T) {
	ctx := homCtx(t, 2, 2)
	ctx.Rand = nil
	if _, err := NewRandom().Schedule(ctx); err == nil {
		t.Fatal("expected error without ctx.Rand")
	}
}

func TestGreedyBeatsRoundRobinOnHeterogeneous(t *testing.T) {
	ctx := hetCtx(t, 20, 400, 11)
	g, err := NewGreedy().Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rr, _ := NewRoundRobin().Schedule(ctx)
	if EstimatedMakespan(g) >= EstimatedMakespan(rr) {
		t.Fatalf("greedy makespan %v not better than round-robin %v",
			EstimatedMakespan(g), EstimatedMakespan(rr))
	}
}

func TestMinMinMaxMinValid(t *testing.T) {
	ctx := hetCtx(t, 15, 150, 5)
	for _, s := range []Scheduler{NewMinMin(), NewMaxMin()} {
		got, err := s.Schedule(ctx)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := ValidateAssignments(ctx, got); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestMaxMinSchedulesLongestFirst(t *testing.T) {
	ctx := hetCtx(t, 5, 50, 9)
	got, _ := NewMaxMin().Schedule(ctx)
	// The first assignment must be the longest cloudlet.
	var maxLen float64
	for _, c := range ctx.Cloudlets {
		if c.Length > maxLen {
			maxLen = c.Length
		}
	}
	if got[0].Cloudlet.Length != maxLen {
		t.Fatalf("max-min first pick length %v, want %v", got[0].Cloudlet.Length, maxLen)
	}
}

func TestMinMinSchedulesShortestFirst(t *testing.T) {
	ctx := hetCtx(t, 5, 50, 9)
	got, _ := NewMinMin().Schedule(ctx)
	first := got[0].Cloudlet
	// First pick must have the globally smallest best-case completion time,
	// which on an empty plant is the smallest EstimateExecTime over VMs.
	best := func(c *cloud.Cloudlet) float64 {
		bv := c.Length
		b := false
		for _, vm := range ctx.VMs {
			if tt := vm.EstimateExecTime(c); !b || tt < bv {
				bv, b = tt, true
			}
		}
		return bv
	}
	for _, c := range ctx.Cloudlets {
		if best(c) < best(first)-1e-12 {
			t.Fatalf("min-min first pick not minimal: %v vs cloudlet %d %v", best(first), c.ID, best(c))
		}
	}
}

func TestSufferageValidAndCompetitive(t *testing.T) {
	ctx := hetCtx(t, 12, 150, 17)
	suf, err := NewSufferage().Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateAssignments(ctx, suf); err != nil {
		t.Fatal(err)
	}
	rr, _ := NewRoundRobin().Schedule(ctx)
	if EstimatedMakespan(suf) >= EstimatedMakespan(rr) {
		t.Fatalf("sufferage makespan %v not below round-robin %v",
			EstimatedMakespan(suf), EstimatedMakespan(rr))
	}
}

func TestSufferageSingleVM(t *testing.T) {
	ctx := hetCtx(t, 1, 10, 3)
	got, err := NewSufferage().Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateAssignments(ctx, got); err != nil {
		t.Fatal(err)
	}
}

func TestSufferageFirstPickMaximizesSufferage(t *testing.T) {
	ctx := hetCtx(t, 4, 30, 21)
	got, _ := NewSufferage().Schedule(ctx)
	// The output preserves input order, so recompute which cloudlet should
	// have booked first on an empty plant and check it got its best VM.
	bestTwo := func(c *cloud.Cloudlet) (int, float64) {
		best, second := -1, -1
		var bct, sct float64
		for v, vm := range ctx.VMs {
			ct := vm.EstimateExecTime(c)
			switch {
			case best == -1 || ct < bct:
				second, sct = best, bct
				best, bct = v, ct
			case second == -1 || ct < sct:
				second, sct = v, ct
			}
		}
		_ = second
		return best, sct - bct
	}
	var maxIdx int
	var maxSuf float64 = -1
	for i, c := range ctx.Cloudlets {
		if _, s := bestTwo(c); s > maxSuf {
			maxSuf, maxIdx = s, i
		}
	}
	wantVM, _ := bestTwo(ctx.Cloudlets[maxIdx])
	if got[maxIdx].VM != ctx.VMs[wantVM] {
		t.Fatalf("max-sufferage cloudlet %d did not get its best VM", maxIdx)
	}
}

func TestCostPriorityPrefersCheapVMs(t *testing.T) {
	ctx := hetCtx(t, 20, 300, 13)
	cp, err := NewCostPriority().Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateAssignments(ctx, cp); err != nil {
		t.Fatal(err)
	}
	rr, _ := NewRoundRobin().Schedule(ctx)
	cost := func(as []Assignment) float64 {
		var sum float64
		for _, a := range as {
			sum += cloud.ProcessingCost(a.Cloudlet, a.VM)
		}
		return sum
	}
	if cost(cp) >= cost(rr) {
		t.Fatalf("cost-priority %v not cheaper than round-robin %v", cost(cp), cost(rr))
	}
}

// TestAllBaselinesProduceValidAssignments is the property every registered
// baseline must satisfy on arbitrary problem sizes.
func TestAllBaselinesProduceValidAssignments(t *testing.T) {
	f := func(seed int64, vmN, clN uint8) bool {
		nVMs := 1 + int(vmN)%12
		nCls := 1 + int(clN)%60
		for _, name := range []string{"base", "random", "greedy", "minmin", "maxmin", "sufferage", "costpriority"} {
			s, err := New(name)
			if err != nil {
				return false
			}
			ctx := hetCtx(t, nVMs, nCls, seed)
			got, err := s.Schedule(ctx)
			if err != nil {
				return false
			}
			if ValidateAssignments(ctx, got) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateAssignmentsCatchesBugs(t *testing.T) {
	ctx := homCtx(t, 2, 3)
	good, _ := NewRoundRobin().Schedule(ctx)

	if err := ValidateAssignments(ctx, good[:2]); err == nil {
		t.Fatal("short assignment accepted")
	}
	dup := append([]Assignment(nil), good...)
	dup[2] = dup[0]
	if err := ValidateAssignments(ctx, dup); err == nil {
		t.Fatal("duplicate cloudlet accepted")
	}
	foreign := append([]Assignment(nil), good...)
	foreign[0].VM = cloud.NewVM(99, 1000, 1, 0, 0, 0)
	if err := ValidateAssignments(ctx, foreign); err == nil {
		t.Fatal("foreign VM accepted")
	}
	nilled := append([]Assignment(nil), good...)
	nilled[1].VM = nil
	if err := ValidateAssignments(ctx, nilled); err == nil {
		t.Fatal("nil VM accepted")
	}
}

func TestSplitAndLoad(t *testing.T) {
	ctx := homCtx(t, 2, 4)
	as, _ := NewRoundRobin().Schedule(ctx)
	cls, vms := Split(as)
	if len(cls) != 4 || len(vms) != 4 {
		t.Fatalf("split lengths: %d %d", len(cls), len(vms))
	}
	for i := range as {
		if cls[i] != as[i].Cloudlet || vms[i] != as[i].VM {
			t.Fatalf("split mismatch at %d", i)
		}
	}
	load := Load(as)
	// 2 cloudlets per VM, each estimate 250/1000 + 300/500 = 0.85 s.
	for vm, l := range load {
		if l < 1.69 || l > 1.71 {
			t.Fatalf("VM %d load %v, want 1.7", vm.ID, l)
		}
	}
	if m := EstimatedMakespan(as); m < 1.69 || m > 1.71 {
		t.Fatalf("makespan %v", m)
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("registry too small: %v", names)
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	s, err := New("base")
	if err != nil || s.Name() != "base" {
		t.Fatalf("New(base): %v %v", s, err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Register("base", func() Scheduler { return NewRoundRobin() })
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Register("brandnew", nil)
}
