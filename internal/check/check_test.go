package check

import (
	"runtime"
	"strings"
	"testing"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/sched"

	// Link every scheduler into the registry so the campaign covers the
	// full algorithm set, exactly as cmd/schedcheck does.
	_ "bioschedsim/internal/aco"
	_ "bioschedsim/internal/ga"
	_ "bioschedsim/internal/hbo"
	_ "bioschedsim/internal/hybrid"
	_ "bioschedsim/internal/pso"
	_ "bioschedsim/internal/rbs"
)

// --- deliberately broken schedulers, registered under test-only names ----

// dupFirst duplicates the first assignment in place of the last: a
// conservation violation whenever the batch has at least two cloudlets.
type dupFirst struct{}

func (dupFirst) Name() string { return "testbroken-dup" }
func (dupFirst) Schedule(ctx *sched.Context) ([]sched.Assignment, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	out := make([]sched.Assignment, len(ctx.Cloudlets))
	for i, c := range ctx.Cloudlets {
		out[i] = sched.Assignment{Cloudlet: c, VM: ctx.VMs[i%len(ctx.VMs)]}
	}
	if len(out) >= 2 {
		out[len(out)-1] = out[0]
	}
	return out, nil
}

// flaky alternates placements across calls via retained state: a
// determinism violation on fleets with more than one VM.
type flaky struct{ calls int }

func (f *flaky) Name() string { return "testbroken-flaky" }
func (f *flaky) Schedule(ctx *sched.Context) ([]sched.Assignment, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	f.calls++
	out := make([]sched.Assignment, len(ctx.Cloudlets))
	for i, c := range ctx.Cloudlets {
		out[i] = sched.Assignment{Cloudlet: c, VM: ctx.VMs[(i+f.calls)%len(ctx.VMs)]}
	}
	return out, nil
}

// acceptsEmpty happily returns zero assignments for an empty batch.
type acceptsEmpty struct{}

func (acceptsEmpty) Name() string { return "testbroken-empty" }
func (acceptsEmpty) Schedule(ctx *sched.Context) ([]sched.Assignment, error) {
	if len(ctx.Cloudlets) == 0 {
		return nil, nil
	}
	out := make([]sched.Assignment, len(ctx.Cloudlets))
	for i, c := range ctx.Cloudlets {
		out[i] = sched.Assignment{Cloudlet: c, VM: ctx.VMs[i%len(ctx.VMs)]}
	}
	return out, nil
}

// brokenParallel shifts every placement by one VM whenever GOMAXPROCS
// exceeds one: a worker-invariance violation on any fleet with at least two
// VMs — the shape of a kernel whose fan-out leaks into results.
type brokenParallel struct{}

func (brokenParallel) Name() string { return "testbroken-parallel" }
func (brokenParallel) Schedule(ctx *sched.Context) ([]sched.Assignment, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	off := 0
	if runtime.GOMAXPROCS(0) > 1 {
		off = 1
	}
	out := make([]sched.Assignment, len(ctx.Cloudlets))
	for i, c := range ctx.Cloudlets {
		out[i] = sched.Assignment{Cloudlet: c, VM: ctx.VMs[(i+off)%len(ctx.VMs)]}
	}
	return out, nil
}

var flakyInstance = &flaky{}

func init() {
	sched.Register("testbroken-dup", func() sched.Scheduler { return dupFirst{} })
	// One shared instance so state survives across sched.New calls, the way
	// a scheduler with hidden global state would behave.
	sched.Register("testbroken-flaky", func() sched.Scheduler { return flakyInstance })
	sched.Register("testbroken-empty", func() sched.Scheduler { return acceptsEmpty{} })
	sched.Register("testbroken-parallel", func() sched.Scheduler { return brokenParallel{} })
}

// realSchedulers is the production registry minus the broken test plants.
func realSchedulers() []string {
	var out []string
	for _, name := range sched.Names() {
		if !strings.HasPrefix(name, "testbroken-") {
			out = append(out, name)
		}
	}
	return out
}

// --- harness self-tests ---------------------------------------------------

func TestQuickCampaignGreenOverAllSchedulers(t *testing.T) {
	cfg := Quick()
	cfg.Schedulers = realSchedulers()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Failures {
		t.Errorf("%v", f)
	}
	wantChecks := len(cfg.Schedulers) * len(Classes()) * cfg.N
	if res.Checks != wantChecks {
		t.Fatalf("ran %d checks, want %d", res.Checks, wantChecks)
	}
}

func TestCampaignIsDeterministic(t *testing.T) {
	cfg := Quick()
	cfg.Schedulers = []string{"base", "random", "rbs"}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Scenarios != b.Scenarios || a.Checks != b.Checks || len(a.Failures) != len(b.Failures) {
		t.Fatalf("same config produced different campaigns: %+v vs %+v", a, b)
	}
}

func TestGenerateIsPureInSeed(t *testing.T) {
	for _, class := range Classes() {
		a, err := Generate(class, 77, 16, 96)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(class, 77, 16, 96)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%s: Generate not pure: %v vs %v", class, a, b)
		}
	}
}

func TestBuildIsPureInSeed(t *testing.T) {
	sc, err := Generate(ClassHeterogeneous, 5, 16, 96)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Ctx.VMs {
		if d := relDiff(a.Ctx.VMs[i].MIPS, b.Ctx.VMs[i].MIPS); d > 0 {
			t.Fatalf("VM %d MIPS differ across builds: %v vs %v", i, a.Ctx.VMs[i].MIPS, b.Ctx.VMs[i].MIPS)
		}
	}
	for i := range a.Ctx.Cloudlets {
		if d := relDiff(a.Ctx.Cloudlets[i].Length, b.Ctx.Cloudlets[i].Length); d > 0 {
			t.Fatalf("cloudlet %d lengths differ across builds", i)
		}
	}
}

func TestScenarioShapes(t *testing.T) {
	for i := uint64(0); i < 20; i++ {
		if sc, err := Generate(ClassWideFleet, i, 16, 96); err != nil || sc.Cloudlets >= sc.VMs {
			t.Fatalf("widefleet seed %d: cloudlets %d not < VMs %d (err %v)", i, sc.Cloudlets, sc.VMs, err)
		}
		if sc, err := Generate(ClassOneVM, i, 16, 96); err != nil || sc.VMs != 1 {
			t.Fatalf("onevm seed %d: VMs = %d (err %v)", i, sc.VMs, err)
		}
		if sc, err := Generate(ClassEmpty, i, 16, 96); err != nil || sc.Cloudlets != 0 {
			t.Fatalf("empty seed %d: cloudlets = %d (err %v)", i, sc.Cloudlets, err)
		}
		sc, err := Generate(ClassMultiPE, i, 16, 96)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, vm := range b.Ctx.VMs {
			if vm.PEs <= len(b.Ctx.VMs) {
				t.Fatalf("multipe seed %d: VM has %d PEs for a %d-VM fleet", i, vm.PEs, len(b.Ctx.VMs))
			}
		}
	}
}

func TestGenerateRejectsUnknownClassAndTinyCaps(t *testing.T) {
	if _, err := Generate("nosuch", 1, 16, 96); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := Generate(ClassHomogeneous, 1, 1, 96); err == nil {
		t.Fatal("tiny caps accepted")
	}
	if err := (Scenario{Class: "nosuch", VMs: 1, DCs: 1}).Validate(); err == nil {
		t.Fatal("unknown class validated")
	}
}

// TestSeededConservationViolationIsCaughtShrunkAndReplayable is the
// acceptance check for the harness itself: a scheduler that returns a
// duplicate assignment must be caught, shrunk to a minimal scenario, and
// reported with a replay command that reproduces the violation.
func TestSeededConservationViolationIsCaughtShrunkAndReplayable(t *testing.T) {
	cfg := Quick()
	cfg.Schedulers = []string{"testbroken-dup"}
	cfg.Classes = []string{ClassHeterogeneous}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("duplicate-assignment scheduler passed the campaign")
	}
	f := res.Failures[0]
	if f.Invariant != InvConservation {
		t.Fatalf("caught invariant %q, want %q (%s)", f.Invariant, InvConservation, f.Err)
	}
	if !strings.Contains(f.Err, "twice") {
		t.Fatalf("unexpected violation message: %s", f.Err)
	}
	// Shrinking must reach the minimal failing shape: two cloudlets (one
	// duplicated) on a single VM.
	if f.Shrunk.Cloudlets > 3 || f.Shrunk.VMs != 1 {
		t.Fatalf("shrunk scenario not minimal: %v", f.Shrunk)
	}
	// The replay command names the shrunk scenario exactly.
	want := f.Shrunk.ReplayCommand("testbroken-dup")
	if f.Replay != want {
		t.Fatalf("replay command %q, want %q", f.Replay, want)
	}
	for _, frag := range []string{"schedcheck replay", "-scheduler testbroken-dup", "-scenario heter", "-seed "} {
		if !strings.Contains(f.Replay, frag) {
			t.Fatalf("replay command %q missing %q", f.Replay, frag)
		}
	}
	// And replaying the shrunk scenario reproduces the violation.
	v := CheckScenario("testbroken-dup", f.Shrunk)
	if v == nil {
		t.Fatal("replaying the shrunk scenario did not reproduce the violation")
	}
	if v.Invariant != InvConservation {
		t.Fatalf("replay reproduced %q, want %q", v.Invariant, InvConservation)
	}
}

// TestSeededWorkerInvarianceViolationIsCaughtShrunkAndReplayable is the
// acceptance check for the worker-invariance suite: a scheduler whose
// results change with GOMAXPROCS must be caught — even on a single-core
// runner, because GOMAXPROCS=2 is always exercised — shrunk to a minimal
// scenario, and reproducible through its replay command.
func TestSeededWorkerInvarianceViolationIsCaughtShrunkAndReplayable(t *testing.T) {
	cfg := Quick()
	cfg.Schedulers = []string{"testbroken-parallel"}
	cfg.Classes = []string{ClassHeterogeneous}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("worker-dependent scheduler passed the campaign")
	}
	f := res.Failures[0]
	if f.Invariant != InvWorkerInvariance {
		t.Fatalf("caught invariant %q, want %q (%s)", f.Invariant, InvWorkerInvariance, f.Err)
	}
	if !strings.Contains(f.Err, "GOMAXPROCS=") {
		t.Fatalf("unexpected violation message: %s", f.Err)
	}
	// Minimal failing shape: one cloudlet on a multi-VM fleet (with a single
	// VM the off-by-one cannot show; halving stops at 2 or 3 VMs depending
	// on the generated fleet size's halving path).
	if f.Shrunk.Cloudlets != 1 || f.Shrunk.VMs < 2 || f.Shrunk.VMs > 3 {
		t.Fatalf("shrunk scenario not minimal: %v", f.Shrunk)
	}
	if want := f.Shrunk.ReplayCommand("testbroken-parallel"); f.Replay != want {
		t.Fatalf("replay command %q, want %q", f.Replay, want)
	}
	// And replaying the shrunk scenario reproduces the violation.
	v := CheckScenario("testbroken-parallel", f.Shrunk)
	if v == nil || v.Invariant != InvWorkerInvariance {
		t.Fatalf("replaying the shrunk scenario did not reproduce the violation: %v", v)
	}
}

func TestDeterminismViolationIsCaught(t *testing.T) {
	sc, err := Generate(ClassHeterogeneous, 3, 8, 40)
	if err != nil {
		t.Fatal(err)
	}
	if sc.VMs < 2 {
		sc.VMs = 2
	}
	v := CheckScenario("testbroken-flaky", sc)
	if v == nil || v.Invariant != InvDeterminism {
		t.Fatalf("stateful scheduler not caught as determinism violation: %v", v)
	}
}

func TestEmptyBatchAcceptanceIsCaught(t *testing.T) {
	sc := Scenario{Class: ClassEmpty, VMs: 3, Cloudlets: 0, DCs: 1, Seed: 9}
	if v := CheckScenario("testbroken-empty", sc); v == nil || v.Invariant != InvRejectEmpty {
		t.Fatalf("empty-batch acceptance not caught: %v", v)
	}
	// The production baseline rejects empty batches.
	if v := CheckScenario("base", sc); v != nil {
		t.Fatalf("base flagged on empty batch: %v", v)
	}
}

func TestShrinkReturnsPassingScenarioUnchanged(t *testing.T) {
	sc, err := Generate(ClassHomogeneous, 4, 8, 40)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, v := Shrink("base", sc)
	if v != nil || shrunk != sc {
		t.Fatalf("Shrink changed a passing scenario: %v (violation %v)", shrunk, v)
	}
}

func TestFixturesAreExecutable(t *testing.T) {
	for name, build := range map[string]func() (*Built, error){
		"heterogeneous": func() (*Built, error) { return HeterogeneousFixture(6, 30, 5) },
		"homogeneous":   func() (*Built, error) { return HomogeneousFixture(6, 30, 5) },
	} {
		b, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.Env.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(b.Ctx.Cloudlets) != 30 || len(b.Ctx.VMs) != 6 {
			t.Fatalf("%s: wrong sizes", name)
		}
	}
}

// TestShardInvarianceViolationIsCaught proves the shard-count-invariance
// check detects a broken cross-shard merge: a planted execution seam that
// skews one cloudlet's finish time whenever more than one shard is in play
// must fail the invariant, while the real executeSharded passes (the green
// campaign above runs it on every scenario).
func TestShardInvarianceViolationIsCaught(t *testing.T) {
	orig := shardExecute
	defer func() { shardExecute = orig }()
	shardExecute = func(b *Built, pos []int, parts [][]*cloud.VM) ([][]*cloud.Cloudlet, error) {
		out, err := executeSharded(b, pos, parts)
		if err != nil || len(parts) == 1 {
			return out, err
		}
		// The plant: one shard's clock drifts — exactly the class of bug a
		// broken metric merge would hide.
		for si := len(out) - 1; si >= 0; si-- {
			if len(out[si]) > 0 {
				out[si][0].FinishTime += 1
				break
			}
		}
		return out, nil
	}
	sc := Scenario{Class: ClassHeterogeneous, VMs: 6, Cloudlets: 12, DCs: 1, Seed: 5}
	v := CheckScenario("base", sc)
	if v == nil {
		t.Fatal("skewed shard execution passed the invariance check")
	}
	if v.Invariant != InvShardInvariance {
		t.Fatalf("caught invariant %q, want %q (%v)", v.Invariant, InvShardInvariance, v.Err)
	}
}

// TestShardInvarianceSkipsSingleVMFleets: a 1-VM fleet admits only the
// trivial partition, so the invariant has nothing to compare and must not
// fail the scenario.
func TestShardInvarianceSkipsSingleVMFleets(t *testing.T) {
	if v := CheckScenario("base", Scenario{Class: ClassOneVM, VMs: 1, Cloudlets: 4, DCs: 1, Seed: 3}); v != nil {
		t.Fatalf("single-VM scenario failed: %v", v)
	}
}

// TestShardInvarianceCoversBurstArrivals pins the staggered-arrival path:
// partitioned execution must respect per-cloudlet arrival offsets and still
// merge bit-identically.
func TestShardInvarianceCoversBurstArrivals(t *testing.T) {
	if v := CheckScenario("base", Scenario{Class: ClassBurst, VMs: 5, Cloudlets: 20, DCs: 1, Seed: 11}); v != nil {
		t.Fatalf("burst scenario failed: %v", v)
	}
}
