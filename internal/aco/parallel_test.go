package aco

import (
	"runtime"
	"sync"
	"testing"

	"bioschedsim/internal/sched"
	"bioschedsim/internal/schedtest"
)

// TestWorkerCountInvariant: the ant-construction pool must never change a
// tour — same seed, same schedule, at any GOMAXPROCS. The problem is sized
// above minParallelCells so multi-worker runs really fan out.
func TestWorkerCountInvariant(t *testing.T) {
	mk := func(procs int) []sched.Assignment {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ctx := schedtest.Heterogeneous(t, 12, 400, 17)
		got, err := New(Config{Ants: 16, Iterations: 4}).Schedule(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.ValidateAssignments(ctx, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	ref := mk(1)
	for _, procs := range []int{2, 8} {
		got := mk(procs)
		for i := range ref {
			if got[i].VM.ID != ref[i].VM.ID {
				t.Fatalf("GOMAXPROCS=%d diverged from serial at cloudlet %d", procs, i)
			}
		}
	}
}

// Below the serial threshold the pool collapses to one worker; GOMAXPROCS
// must still be invisible in the result.
func TestWorkerCountInvariantSmallProblem(t *testing.T) {
	mk := func(procs int) []sched.Assignment {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ctx := schedtest.Heterogeneous(t, 4, 40, 9)
		got, err := New(Config{Ants: 8, Iterations: 3}).Schedule(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	ref := mk(1)
	got := mk(8)
	for i := range ref {
		if got[i].VM.ID != ref[i].VM.ID {
			t.Fatalf("GOMAXPROCS=8 diverged from serial at cloudlet %d on a sub-threshold problem", i)
		}
	}
}

// TestConcurrentScheduleRace hammers one shared scheduler from many
// goroutines at full pool width; run under -race it proves the per-worker
// scratch really is private (the scheduler itself is stateless per call).
func TestConcurrentScheduleRace(t *testing.T) {
	s := New(Config{Ants: 12, Iterations: 2})
	ctxs := make([]*sched.Context, 6)
	for g := range ctxs {
		ctxs[g] = schedtest.Heterogeneous(t, 8, 600, int64(100+g))
	}
	var wg sync.WaitGroup
	for g := 0; g < len(ctxs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := ctxs[g]
			got, err := s.Schedule(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			if err := sched.ValidateAssignments(ctx, got); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}
