package service

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// soakHeapSlack is how far the live heap may grow between 200 k and 1 M
// served cloudlets. A daemon that kept a reference to every served
// cloudlet would grow by ~100 B per cloudlet, ~80 MB over the interval.
const soakHeapSlack = 4 << 20

// A long-running daemon's memory stays flat: after 1 M cloudlets its live
// heap is within soakHeapSlack of its heap after 200 k, with the status
// store capped so that only the serving path is measured.
func TestServiceSoakHeapStaysFlat(t *testing.T) {
	svc, err := New(testEnv(t, 50, 42), Config{Scheduler: "base", BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	svc.stat.retention = 1000 // before any submit, so no record is yet kept
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	}()

	req := make([]CloudletSpec, 256)
	for i := range req {
		req[i] = CloudletSpec{Length: 1000 + float64(i%13)*250}
	}
	served := 0
	serve := func(until int) uint64 {
		t.Helper()
		for served < until {
			if _, err := svc.Submit(req); err != nil {
				if !errors.Is(err, ErrQueueFull) {
					t.Fatal(err)
				}
				runtime.Gosched()
				continue
			}
			served += len(req)
		}
		deadline := time.Now().Add(time.Minute)
		for svc.prom.finishedTotal() != uint64(served) {
			if time.Now().After(deadline) {
				t.Fatalf("finished %d of %d", svc.prom.finishedTotal(), served)
			}
			time.Sleep(time.Millisecond)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	start := time.Now()
	at200k := serve(200_000)
	early := served
	at1M := serve(1_000_000)
	wall := time.Since(start)
	drain(t, svc)

	t.Logf("live heap %.1f MB at %d cloudlets, %.1f MB at %d; session clock %.0f s; wall %v",
		float64(at200k)/(1<<20), early, float64(at1M)/(1<<20), served, svc.shards[0].session.Now(), wall)
	if at1M > at200k+soakHeapSlack {
		t.Fatalf("live heap grew from %d to %d bytes between 200 k and %d served cloudlets, more than %d",
			at200k, at1M, served, soakHeapSlack)
	}
	if got := svc.prom.failedTotal(); got != 0 {
		t.Fatalf("failed = %d, want 0", got)
	}
}
