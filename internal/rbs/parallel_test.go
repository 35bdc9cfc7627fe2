package rbs

import (
	"runtime"
	"sync"
	"testing"

	"bioschedsim/internal/sched"
	"bioschedsim/internal/schedtest"
)

// TestWorkerCountInvariant: the draw-precompute pool must never change an
// assignment — each cloudlet's ω and entry point come from its own xrand
// child stream, so only the wall clock may move. The batch is sized above
// the serial threshold so multi-worker runs really fan out.
func TestWorkerCountInvariant(t *testing.T) {
	mk := func(procs int) []sched.Assignment {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ctx := schedtest.Heterogeneous(t, 8, 40000, 5)
		got, err := New(Config{Groups: 3}).Schedule(ctx)
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
		ctx := schedtest.Heterogeneous(t, 6, 300, 11)
		got, err := New(Config{}).Schedule(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	ref := mk(1)
	got := mk(8)
	for i := range ref {
		if got[i].VM.ID != ref[i].VM.ID {
			t.Fatalf("GOMAXPROCS=8 diverged from serial at cloudlet %d on a sub-threshold batch", i)
		}
	}
}

// TestConcurrentScheduleRace hammers one shared scheduler from many
// goroutines at full pool width; run under -race it proves the parallel
// draw fill shares nothing mutable across calls.
func TestConcurrentScheduleRace(t *testing.T) {
	s := New(Config{Groups: 4})
	ctxs := make([]*sched.Context, 6)
	for g := range ctxs {
		ctxs[g] = schedtest.Heterogeneous(t, 10, 40000, int64(200+g))
	}
	var wg sync.WaitGroup
	for g := 0; g < len(ctxs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := s.Schedule(ctxs[g])
			if err != nil {
				t.Error(err)
				return
			}
			if err := sched.ValidateAssignments(ctxs[g], got); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}
