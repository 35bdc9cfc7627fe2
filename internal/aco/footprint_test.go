package aco

import (
	"reflect"
	"testing"

	"bioschedsim/internal/objective"
	"bioschedsim/internal/schedtest"
)

// float64Cells returns the float64 cells v holds in slices (their lengths;
// the allocator's size-class rounding is not the layout's), following
// struct fields and pointers (each pointer once). Slices of other element
// types are not entered: they hold the caller's cloudlets and VMs, or
// integers.
func float64Cells(v reflect.Value, seen map[uintptr]bool) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		return float64Cells(v.Elem(), seen)
	case reflect.Struct:
		total := 0
		for i := 0; i < v.NumField(); i++ {
			total += float64Cells(v.Field(i), seen)
		}
		return total
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Float64 {
			return v.Len()
		}
	}
	return 0
}

// TestDenseFootprint bounds the float64 state a dense search keeps: the
// n×m weight table, the touched cells' pheromone and η^β (two cells each,
// at most min(Iterations, m) per row), and O(m) per worker. The problem is
// above minParallelCells and has far fewer iterations than VMs, so a second
// n×m (or n×K, K = m) table anywhere in the run, its matrix or its worker
// scratch breaks the bound.
func TestDenseFootprint(t *testing.T) {
	const n, m = 150, 64
	cfg := New(Config{Ants: 10, Iterations: 5}).Config()
	ctx := schedtest.Heterogeneous(t, m, n, 2)
	classes := objective.ClassesOf(ctx.VMs)
	if classes.K != m {
		t.Fatalf("fixture has %d VM classes, want one per VM", classes.K)
	}
	r := newRun()
	r.reset(cfg, ctx, classes)
	r.search()
	if !r.dense || r.workers < 1 {
		t.Fatal("problem did not take the dense layout")
	}

	seen := map[uintptr]bool{}
	// The run's own fields, minus the caller's context and the fleet
	// partition it shares, plus every worker scratch the pool still holds.
	r.ctx, r.classes = nil, nil
	cells := float64Cells(reflect.ValueOf(r), seen)
	scratches := 0
	for sc, _ := r.scratch.Get().(*antScratch); sc != nil; sc, _ = r.scratch.Get().(*antScratch) {
		cells += float64Cells(reflect.ValueOf(sc), seen)
		scratches++
	}
	slots := min(cfg.Iterations, m)
	bound := n*m + 2*n*slots + 4*m*(scratches+1)
	if cells > bound {
		t.Fatalf("dense run holds %d float64 cells, over the bound %d (n·m = %d)", cells, bound, n*m)
	}
	if bound >= 2*n*m {
		t.Fatalf("bound %d cannot tell a second n×m table (n·m = %d)", bound, n*m)
	}
}
