package objective_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"bioschedsim/internal/objective"
	"bioschedsim/internal/schedtest"
)

// TestParallelForVisitsEveryIndex exercises both dispatch shapes of the
// shared fan-out primitive: serial, and a real multi-goroutine pool with
// more items than workers — every index must run exactly once either way.
func TestParallelForVisitsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 100} {
		const items = 257 // prime: never divides evenly into chunks
		var hits [items]int32
		objective.ParallelFor(workers, items, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
		objective.ParallelFor(workers, 0, func(int) { t.Fatal("ran on empty range") })
	}
}

// TestEffectiveWorkersCutover pins the serial cutover and the GOMAXPROCS
// width above it.
func TestEffectiveWorkersCutover(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	if w := objective.EffectiveWorkers(10, 1000); w != 1 {
		t.Fatalf("below break-even resolved to %d workers, want 1", w)
	}
	if w := objective.EffectiveWorkers(2000, 1000); w != 8 {
		t.Fatalf("above break-even resolved to %d workers, want GOMAXPROCS=8", w)
	}
	if w := objective.EffectiveWorkers(1<<10, 0); w != 1 {
		t.Fatalf("below the default break-even resolved to %d workers, want 1", w)
	}
	if w := objective.EffectiveWorkers(1<<20, 0); w != 8 {
		t.Fatalf("above the default break-even resolved to %d workers, want GOMAXPROCS=8", w)
	}
}

// TestMatrixAccessorsShareProblemSlices pins the trivial accessors: the
// matrix exposes the exact slices it was built over.
func TestMatrixAccessorsShareProblemSlices(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 3, 6, 1)
	mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{})
	if got := mx.Cloudlets(); len(got) != len(ctx.Cloudlets) || got[0] != ctx.Cloudlets[0] {
		t.Fatal("Cloudlets() does not share the problem slice")
	}
	if got := mx.VMs(); len(got) != len(ctx.VMs) || got[0] != ctx.VMs[0] {
		t.Fatal("VMs() does not share the problem slice")
	}
}

// TestExecTimesHandBuiltClasses covers the scalar fallback for a Classes
// value assembled by hand (no structure-of-arrays views): results must
// match the capacity/bandwidth-view path of a classesOf-built partition bit
// for bit.
func TestExecTimesHandBuiltClasses(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 4, 8, 1)
	built := objective.ClassesOf(ctx.VMs)
	hand := &objective.Classes{Index: built.Index, Reps: built.Reps, K: built.K}
	bufA := make([]float64, built.K)
	bufB := make([]float64, built.K)
	for _, c := range ctx.Cloudlets {
		a := built.ExecTimes(c, bufA)
		b := hand.ExecTimes(c, bufB)
		for i := range a {
			if bits(a[i]) != bits(b[i]) {
				t.Fatalf("hand-built Classes ExecTimes[%d] = %v, view path %v", i, b[i], a[i])
			}
		}
	}
}
