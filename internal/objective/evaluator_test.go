package objective_test

import (
	"math"
	"math/rand"
	"testing"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/objective"
	"bioschedsim/internal/schedtest"
)

// TestEvaluatorAddOnlyBitIdentical: building an assignment through Assign
// calls must reproduce the canonical full evaluation bit for bit.
func TestEvaluatorAddOnlyBitIdentical(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 7, 80, 11)
	mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{WithCost: true})
	e := objective.NewEvaluator(mx, true)
	rnd := rand.New(rand.NewSource(12))
	pos := make([]int, mx.N())
	for i := range pos {
		pos[i] = rnd.Intn(mx.M())
		e.Assign(i, pos[i])
	}
	busy := make([]float64, mx.M())
	if got, want := e.Makespan(), mx.MakespanOf(pos, busy); bits(got) != bits(want) {
		t.Fatalf("Makespan=%v want %v", got, want)
	}
	if got, want := e.TotalCost(), mx.CostOf(pos); bits(got) != bits(want) {
		t.Fatalf("TotalCost=%v want %v", got, want)
	}
	// SetAll must agree with the incremental build exactly.
	e2 := objective.NewEvaluator(mx, true)
	e2.SetAll(pos)
	if bits(e2.Makespan()) != bits(e.Makespan()) || bits(e2.TotalCost()) != bits(e.TotalCost()) {
		t.Fatal("SetAll disagrees with Assign sequence")
	}
	for j := 0; j < mx.M(); j++ {
		if bits(e2.Load(j)) != bits(e.Load(j)) {
			t.Fatalf("Load(%d) mismatch", j)
		}
	}
}

// TestEvaluatorMoveDelta: random single-cloudlet reassignments must track
// the full evaluation within float round-off.
func TestEvaluatorMoveDelta(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 6, 50, 13)
	mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{WithCost: true})
	e := objective.NewEvaluator(mx, true)
	rnd := rand.New(rand.NewSource(14))
	pos := make([]int, mx.N())
	for i := range pos {
		pos[i] = rnd.Intn(mx.M())
	}
	e.SetAll(pos)
	busy := make([]float64, mx.M())
	for step := 0; step < 500; step++ {
		i, j := rnd.Intn(mx.N()), rnd.Intn(mx.M())
		pos[i] = j
		e.Move(i, j)
		if got := e.Assignment(i); got != j {
			t.Fatalf("step %d: Assignment(%d)=%d want %d", step, i, got, j)
		}
		want := mx.MakespanOf(pos, busy)
		if got := e.Makespan(); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("step %d: Makespan=%v want %v", step, got, want)
		}
		wantCost := mx.CostOf(pos)
		if got := e.TotalCost(); math.Abs(got-wantCost) > 1e-9*wantCost {
			t.Fatalf("step %d: TotalCost=%v want %v", step, got, wantCost)
		}
	}
}

// TestEvaluatorMaxStale pins the lazy-rescan path: removing load from the
// argmax VM must produce the exact new maximum.
func TestEvaluatorMaxStale(t *testing.T) {
	// Unit-capacity VMs with no bandwidth term: exec time == length.
	vms := []*cloud.VM{cloud.NewVM(0, 1, 1, 0, 0, 0), cloud.NewVM(1, 1, 1, 0, 0, 0)}
	cls := []*cloud.Cloudlet{
		cloud.NewCloudlet(0, 3, 1, 0, 0),
		cloud.NewCloudlet(1, 2, 1, 0, 0),
		cloud.NewCloudlet(2, 1, 1, 0, 0),
	}
	mx := objective.NewMatrix(cls, vms, objective.Options{})
	e := objective.NewEvaluator(mx, false)
	e.SetAll([]int{0, 0, 0})
	if got := e.Makespan(); got != 6 {
		t.Fatalf("initial makespan %v want 6", got)
	}
	e.Move(0, 1) // loads 3,3 — argmax shrank
	if got := e.Makespan(); got != 3 {
		t.Fatalf("after move 0→1: %v want 3", got)
	}
	e.Move(1, 1) // loads 1,5 — other VM grows
	if got := e.Makespan(); got != 5 {
		t.Fatalf("after move 1→1: %v want 5", got)
	}
	e.Move(1, 1) // no-op
	if got := e.Makespan(); got != 5 {
		t.Fatalf("no-op move changed makespan to %v", got)
	}
	if got := e.Load(0); got != 1 {
		t.Fatalf("Load(0)=%v want 1", got)
	}
}

func TestEvaluatorResetAndUnassigned(t *testing.T) {
	ctx := schedtest.Homogeneous(t, 4, 10, 15)
	mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{})
	e := objective.NewEvaluator(mx, false)
	if got := e.Assignment(0); got != -1 {
		t.Fatalf("fresh Assignment(0)=%d want -1", got)
	}
	if got := e.Load(0); got != 0 {
		t.Fatalf("fresh Load(0)=%v want 0", got)
	}
	e.Move(0, 2) // moving an unassigned cloudlet assigns it
	if got := e.Assignment(0); got != 2 {
		t.Fatalf("Move-assign gave %d want 2", got)
	}
	e.Assign(0, 3) // assigning an assigned cloudlet moves it
	if got := e.Assignment(0); got != 3 {
		t.Fatalf("Assign-move gave %d want 3", got)
	}
	e.Reset()
	if got := e.Assignment(0); got != -1 {
		t.Fatalf("post-Reset Assignment(0)=%d want -1", got)
	}
	if got := e.Makespan(); got != 0 {
		t.Fatalf("post-Reset Makespan=%v want 0", got)
	}
	if got := e.Load(3); got != 0 {
		t.Fatalf("post-Reset Load(3)=%v want 0", got)
	}
	// Epoch reuse after Reset must still be exact.
	e.Assign(1, 0)
	if got, want := e.Makespan(), mx.Exec(1, 0); bits(got) != bits(want) {
		t.Fatalf("post-Reset Makespan=%v want %v", got, want)
	}
}

func TestTotalCostPanicsWithoutCost(t *testing.T) {
	ctx := schedtest.Homogeneous(t, 2, 4, 16)
	mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{})
	e := objective.NewEvaluator(mx, false)
	defer func() {
		if recover() == nil {
			t.Fatal("TotalCost without cost tracking did not panic")
		}
	}()
	e.TotalCost()
}

// A rebound evaluator must score a new problem exactly like a fresh one,
// whether the problem is larger or smaller than the one before, and a
// matrix built over a precomputed partition must equal one that builds
// its own.
func TestEvaluatorRebindAndSharedClasses(t *testing.T) {
	e := objective.NewEvaluator(objective.NewMatrix(
		schedtest.Heterogeneous(t, 5, 30, 1).Cloudlets, schedtest.Heterogeneous(t, 5, 30, 1).VMs, objective.Options{}), false)
	e.Assign(0, 1)
	for _, size := range [][2]int{{9, 120}, {3, 7}, {9, 60}} {
		ctx := schedtest.Heterogeneous(t, size[0], size[1], int64(size[1]))
		mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{})
		shared := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{Classes: objective.ClassesOf(ctx.VMs)})
		e.Rebind(shared)
		if e.Matrix() != shared || e.Assignment(0) != -1 || e.Makespan() != 0 {
			t.Fatalf("%v: rebound evaluator kept state from the last problem", size)
		}
		fresh := objective.NewEvaluator(mx, false)
		rnd := rand.New(rand.NewSource(3))
		for i := 0; i < mx.N(); i++ {
			j := rnd.Intn(mx.M())
			e.Assign(i, j)
			fresh.Assign(i, j)
			if bits(shared.Exec(i, j)) != bits(mx.Exec(i, j)) {
				t.Fatalf("%v: Exec(%d, %d) differs over a shared partition", size, i, j)
			}
		}
		if bits(e.Makespan()) != bits(fresh.Makespan()) {
			t.Fatalf("%v: rebound makespan %v, fresh %v", size, e.Makespan(), fresh.Makespan())
		}
	}
}
