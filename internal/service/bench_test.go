package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"bioschedsim/internal/workload"
)

// benchSubmitFlush measures the submit→flush hot path: n concurrent
// submitters push single-cloudlet requests through routing, admission,
// coalescing, mapping, and execution on the persistent per-shard brokers.
// Rejected submissions retry, so every operation eventually lands — the
// reported metric is end-to-end accepted-cloudlet throughput under
// contention.
func benchSubmitFlush(b *testing.B, shards, submitters int) {
	fleet := workload.GenerateVMs(workload.HeterogeneousVMSpec(), 16, 42)
	env, err := workload.GenerateEnvironment(workload.HeterogeneousDatacenterSpec(2), fleet, 42)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := New(env, Config{
		Scheduler: "base",
		Shards:    shards,
		BatchSize: 256,
		QueueCap:  8192,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			b.Fatal(err)
		}
	}()

	spec := []CloudletSpec{{Length: 1000, FileSize: 300}}
	perG := b.N / submitters
	if perG == 0 {
		perG = 1
	}
	total := perG * submitters

	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for {
					if _, err := svc.Submit(spec); err == nil {
						break
					}
					// Queue full: yield and retry, as a client honouring
					// Retry-After would.
					time.Sleep(50 * time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	// Wait until everything accepted has executed, so the throughput figure
	// covers the full submit→flush→execute pipeline.
	for svc.prom.finishedTotal() < uint64(total) {
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
	elapsed := b.Elapsed()
	b.ReportMetric(float64(total)/elapsed.Seconds(), "cloudlets/s")
	b.ReportMetric(float64(svc.prom.rejectedTotal())/float64(total), "rejects/op")
}

func BenchmarkSubmitFlush(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		for _, submitters := range []int{1000, 10000} {
			b.Run(fmt.Sprintf("shards=%d/submitters=%d", shards, submitters), func(b *testing.B) {
				benchSubmitFlush(b, shards, submitters)
			})
		}
	}
}
