package aco

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/schedtest"
	"bioschedsim/internal/workload"
)

func TestDefaultConfigMatchesTableII(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Ants != 50 {
		t.Errorf("Ants: %d want 50", cfg.Ants)
	}
	if cfg.Alpha != 0.01 {
		t.Errorf("Alpha: %v want 0.01", cfg.Alpha)
	}
	if cfg.Beta != 0.99 {
		t.Errorf("Beta: %v want 0.99", cfg.Beta)
	}
	if cfg.Rho != 0.4 {
		t.Errorf("Rho: %v want 0.4", cfg.Rho)
	}
	if cfg.Q != 100 {
		t.Errorf("Q: %v want 100", cfg.Q)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Ants: 0, Alpha: 1, Beta: 1, Rho: .5, Q: 1, Iterations: 1, InitialTau: 1},
		{Ants: 1, Alpha: 1, Beta: 1, Rho: .5, Q: 1, Iterations: 0, InitialTau: 1},
		{Ants: 1, Alpha: 1, Beta: 1, Rho: 1.0, Q: 1, Iterations: 1, InitialTau: 1},
		{Ants: 1, Alpha: 1, Beta: 1, Rho: -.1, Q: 1, Iterations: 1, InitialTau: 1},
		{Ants: 1, Alpha: 1, Beta: 1, Rho: .5, Q: 0, Iterations: 1, InitialTau: 1},
		{Ants: 1, Alpha: 1, Beta: 1, Rho: .5, Q: 1, Iterations: 1, InitialTau: 0},
		{Ants: 1, Alpha: -1, Beta: 1, Rho: .5, Q: 1, Iterations: 1, InitialTau: 1},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestNewFillsDefaults(t *testing.T) {
	s := New(Config{})
	if s.Config() != DefaultConfig() {
		t.Fatalf("zero config did not default: %+v", s.Config())
	}
	custom := New(Config{Ants: 5, Iterations: 3})
	if custom.Config().Ants != 5 || custom.Config().Iterations != 3 {
		t.Fatal("explicit fields overridden")
	}
	if custom.Config().Rho != 0.4 {
		t.Fatal("unset fields not defaulted")
	}
}

func TestScheduleValidAssignments(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 10, 60, 1)
	s := New(Config{Ants: 10, Iterations: 3})
	got, err := s.Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateAssignments(ctx, got); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	mk := func() []sched.Assignment {
		ctx := schedtest.Heterogeneous(t, 8, 40, 5)
		got, err := New(Config{Ants: 8, Iterations: 3}).Schedule(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].VM.ID != b[i].VM.ID {
			t.Fatalf("non-deterministic at %d: %d vs %d", i, a[i].VM.ID, b[i].VM.ID)
		}
	}
}

func TestACOBeatsRoundRobinOnTourLength(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 12, 120, 9)
	acoAs, err := New(Config{Ants: 20, Iterations: 5}).Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rrAs, err := sched.NewRoundRobin().Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if TourLength(acoAs) >= TourLength(rrAs) {
		t.Fatalf("ACO tour %v not shorter than round-robin %v", TourLength(acoAs), TourLength(rrAs))
	}
}

func TestACOSpreadsAcrossVMs(t *testing.T) {
	// Tabu cycling must prevent total pile-up: every VM receives work when
	// cloudlets outnumber VMs.
	ctx := schedtest.Heterogeneous(t, 6, 60, 3)
	got, err := Default().Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, a := range got {
		counts[a.VM.ID]++
	}
	if len(counts) != 6 {
		t.Fatalf("only %d of 6 VMs used", len(counts))
	}
}

func TestSingleVMFleet(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 1, 10, 2)
	got, err := Default().Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range got {
		if a.VM != ctx.VMs[0] {
			t.Fatal("single-VM fleet must route everything to it")
		}
	}
}

func TestRequiresRand(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 4, 8, 1)
	ctx.Rand = nil
	if _, err := Default().Schedule(ctx); err == nil {
		t.Fatal("expected error without ctx.Rand")
	}
}

func TestInvalidConfigSurfacesAtSchedule(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 4, 8, 1)
	s := &Scheduler{cfg: Config{Ants: -1}}
	if _, err := s.Schedule(ctx); err == nil {
		t.Fatal("expected config error")
	}
}

func TestMoreIterationsNeverWorse(t *testing.T) {
	// The returned tour is the best over all iterations, so quality is
	// monotone in iteration count for a fixed seed sequence prefix property.
	// We assert the weaker, always-true property: result ≤ first-iteration
	// greedy bound obtained with 1 iteration and same ant count.
	short, err := New(Config{Ants: 10, Iterations: 1}).Schedule(schedtest.Heterogeneous(t, 8, 60, 21))
	if err != nil {
		t.Fatal(err)
	}
	long, err := New(Config{Ants: 10, Iterations: 8}).Schedule(schedtest.Heterogeneous(t, 8, 60, 21))
	if err != nil {
		t.Fatal(err)
	}
	if TourLength(long) > TourLength(short)+1e-9 {
		t.Fatalf("8 iterations (%v) worse than 1 (%v)", TourLength(long), TourLength(short))
	}
}

func TestPheromoneInfluence(t *testing.T) {
	// With β=0 (no heuristic) and heavy pheromone weight, the search still
	// yields valid assignments — exercising the α-dominant code path.
	ctx := schedtest.Heterogeneous(t, 6, 30, 8)
	got, err := New(Config{Ants: 10, Alpha: 2, Beta: 1e-12, Rho: 0.2, Q: 50, Iterations: 4, InitialTau: 1}).Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateAssignments(ctx, got); err != nil {
		t.Fatal(err)
	}
}

func TestVectorModeMatchesDenseShapeOnHomogeneous(t *testing.T) {
	// Force vector mode with a tiny MaxMatrixCells: on a homogeneous
	// workload (d_ij constant per VM) it must still produce a valid,
	// well-spread assignment.
	ctx := schedtest.Homogeneous(t, 8, 64, 3)
	s := New(Config{Ants: 8, Iterations: 3, MaxMatrixCells: 1})
	got, err := s.Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateAssignments(ctx, got); err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, a := range got {
		counts[a.VM.ID]++
	}
	if len(counts) != 8 {
		t.Fatalf("vector mode used only %d of 8 VMs", len(counts))
	}
}

func TestVectorModeDeterministic(t *testing.T) {
	mk := func() []sched.Assignment {
		ctx := schedtest.Heterogeneous(t, 6, 48, 7)
		got, err := New(Config{Ants: 6, Iterations: 2, MaxMatrixCells: 1}).Schedule(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].VM.ID != b[i].VM.ID {
			t.Fatalf("vector mode non-deterministic at %d", i)
		}
	}
}

func TestMaxMatrixCellsValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMatrixCells = -1
	if cfg.Validate() == nil {
		t.Fatal("negative MaxMatrixCells accepted")
	}
}

func TestRegisteredInSchedRegistry(t *testing.T) {
	s, err := sched.New("aco")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "aco" {
		t.Fatalf("name: %s", s.Name())
	}
}

func TestSchedulePropertyValid(t *testing.T) {
	f := func(seed int64, vmN, clN uint8) bool {
		nVMs := 1 + int(vmN)%8
		nCls := 1 + int(clN)%30
		ctx := schedtest.Heterogeneous(t, nVMs, nCls, seed)
		got, err := New(Config{Ants: 4, Iterations: 2}).Schedule(ctx)
		if err != nil {
			return false
		}
		return sched.ValidateAssignments(ctx, got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTourLength(t *testing.T) {
	ctx := schedtest.Homogeneous(t, 2, 4, 1)
	as, _ := sched.NewRoundRobin().Schedule(ctx)
	// Each estimate: 250/1000 + 300/500 = 0.85; two cloudlets per VM →
	// Eq. 8 makespan 1.7.
	if got := TourLength(as); got < 1.69 || got > 1.71 {
		t.Fatalf("tour length: %v", got)
	}
}

func BenchmarkTableII_ACOIteration(b *testing.B) {
	ctx := schedtest.Heterogeneous(b, 50, 500, 1)
	s := New(Config{Ants: 50, Iterations: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Rand = rand.New(rand.NewSource(int64(i)))
		if _, err := s.Schedule(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleSmallBatch prices the batches a work-conserving daemon
// hands ACO: a few cloudlets on a 50-VM heterogeneous fleet, one worker,
// with the Table II colony. At these sizes the per-call fixed cost, not the
// search, sets the time and the allocations.
func BenchmarkScheduleSmallBatch(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := schedtest.Heterogeneous(b, 50, n, 1)
			s := New(Config{Workers: 1})
			rnd := rand.New(rand.NewSource(1))
			ctx.Rand = rnd
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleHeterogeneous prices one paper-scale Fig. 6 batch: the
// Table II scheduler on 5 000 heterogeneous cloudlets over 4 datacenters,
// at the sweep's smallest, middle and largest fleets. It is the offline
// schedule stage of the paper-het benchmark.
func BenchmarkScheduleHeterogeneous(b *testing.B) {
	for _, m := range []int{50, 550, 950} {
		b.Run(fmt.Sprint(m), func(b *testing.B) {
			scn, err := workload.Heterogeneous(m, 5000, 4, 1)
			if err != nil {
				b.Fatal(err)
			}
			s := Default()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(scn.Context()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A warm scheduler reuses run buffers and the cached VM class partition
// from earlier calls. Its tours must equal a cold scheduler's on every
// problem, including a fleet whose VMs changed capacity or bandwidth in
// place, which must invalidate the cached partition.
func TestWarmSchedulerMatchesCold(t *testing.T) {
	warm := New(Config{Ants: 8, Iterations: 3})
	check := func(name string, ctx *sched.Context) {
		t.Helper()
		ctx.Rand = rand.New(rand.NewSource(5))
		got, err := warm.Schedule(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Rand = rand.New(rand.NewSource(5))
		want, err := New(Config{Ants: 8, Iterations: 3}).Schedule(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].VM != want[i].VM {
				t.Fatalf("%s: warm scheduler diverged from cold at cloudlet %d", name, i)
			}
		}
	}
	ctx := schedtest.Heterogeneous(t, 12, 40, 3)
	check("first call", ctx)
	check("same problem again", ctx)
	check("larger batch", schedtest.Heterogeneous(t, 12, 200, 4))
	check("single cloudlet", schedtest.Heterogeneous(t, 12, 1, 4))
	check("other fleet", schedtest.Heterogeneous(t, 30, 40, 6))

	// Make VM 0 a copy of VM 1's speed, merging their classes, then give VM
	// 2 VM 3's capacity through a different PE/MIPS split, and finally
	// change a bandwidth alone.
	vms := ctx.VMs
	vms[0].MIPS, vms[0].PEs = vms[1].MIPS, vms[1].PEs
	check("capacity changed in place", ctx)
	vms[2].MIPS, vms[2].PEs = vms[3].Capacity()/2, 2
	check("PEs and MIPS changed in place", ctx)
	vms[5].Bw *= 3
	check("bandwidth changed in place", ctx)
	ctx.VMs = append([]*cloud.VM{vms[len(vms)-1]}, vms[:len(vms)-1]...)
	check("fleet reordered", ctx)
}
