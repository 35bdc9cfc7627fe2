package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/workload"

	// The daemon tests exercise a bio-inspired batch scheduler end to end.
	_ "bioschedsim/internal/aco"
)

// testEnv builds a small heterogeneous fleet.
func testEnv(t testing.TB, nVMs int, seed uint64) *cloud.Environment {
	t.Helper()
	fleet := workload.GenerateVMs(workload.HeterogeneousVMSpec(), nVMs, seed)
	env, err := workload.GenerateEnvironment(workload.HeterogeneousDatacenterSpec(2), fleet, seed)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// startService builds a daemon and registers cleanup draining.
func startService(t testing.TB, cfg Config) *Service {
	t.Helper()
	svc, err := New(testEnv(t, 8, 42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Drain(ctx)
	})
	return svc
}

// drain shuts the service down and fails the test on timeout.
func drain(t testing.TB, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func specN(n int) []CloudletSpec {
	out := make([]CloudletSpec, n)
	for i := range out {
		out[i] = CloudletSpec{Length: 1000 + float64(i%7)*500, FileSize: 300, OutputSize: 300}
	}
	return out
}

func TestServiceFlushBySize(t *testing.T) {
	svc := startService(t, Config{Scheduler: "base", BatchSize: 8})
	ids, err := svc.Submit(specN(16)) // two full batches, no timer needed
	if err != nil {
		t.Fatal(err)
	}
	drain(t, svc)
	for _, id := range ids {
		rec, ok := svc.Status(id)
		if !ok || rec.State != StateFinished {
			t.Fatalf("cloudlet %d: %+v ok=%v", id, rec, ok)
		}
		if rec.VM < 0 || rec.FinishSim <= rec.StartSim {
			t.Fatalf("cloudlet %d has degenerate record %+v", id, rec)
		}
	}
	if got := svc.prom.batchesTotal(); got < 2 {
		t.Fatalf("batches = %d, want ≥ 2", got)
	}
	if got := svc.prom.finishedTotal(); got != 16 {
		t.Fatalf("finished = %d, want 16", got)
	}
}

// A lone cloudlet on an idle shard is mapped at once, in a batch of its
// own, however large BatchSize is.
func TestServiceIdleShardFlushesAtOnce(t *testing.T) {
	svc := startService(t, Config{Scheduler: "base", BatchSize: 1 << 20})
	ids, err := svc.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec, _ := svc.Status(ids[0])
		if rec.State == StateFinished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lone cloudlet not mapped on an idle shard; record %+v", rec)
		}
		time.Sleep(time.Millisecond)
	}
	if got := svc.prom.batchesTotal(); got != 1 {
		t.Fatalf("batches = %d, want 1", got)
	}
}

// Requests queued while the shard maps form its next batches, with no
// timer involved: each request stays whole, so with BatchSize 4 requests of
// 2, 3 and 1 cloudlets map as a batch of 2 and then a batch of 3+1.
func TestServiceQueuedRequestsFormNextBatch(t *testing.T) {
	svc := startService(t, Config{Scheduler: "hold-plant", BatchSize: 4})
	g := newHoldGate(t)
	occupy(t, svc, g)
	var reqs [][]int
	for _, n := range []int{2, 3, 1} {
		ids, err := svc.Submit(specN(n))
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, ids)
	}
	g.open()
	drain(t, svc)

	batchOf := func(id int) int {
		rec, _ := svc.Status(id)
		if rec.State != StateFinished {
			t.Fatalf("cloudlet %d: %+v", id, rec)
		}
		return rec.Batch
	}
	size := map[int]int{}
	for _, ids := range reqs {
		for _, id := range ids {
			size[batchOf(id)]++
		}
	}
	first, second := batchOf(reqs[0][0]), batchOf(reqs[1][0])
	if first >= second || batchOf(reqs[2][0]) != second {
		t.Fatalf("requests of 2, 3, 1 mapped in batches %d, %d, %d; want b, b' and b' with b < b'",
			first, second, batchOf(reqs[2][0]))
	}
	if size[first] != 2 || size[second] != 4 || len(size) != 2 {
		t.Fatalf("batch sizes %v, want 2 then 4", size)
	}
	if got := svc.prom.batchesTotal(); got != 3 {
		t.Fatalf("batches = %d, want 3 (the held one, then 2, then 4)", got)
	}
}

func TestServiceSubmitValidation(t *testing.T) {
	svc := startService(t, Config{Scheduler: "base"})
	bad := []CloudletSpec{
		{Length: 0},
		{Length: -5},
		{Length: math.NaN()},
		{Length: math.Inf(1)},
		{Length: 100, PEs: -1},
		{Length: 100, FileSize: -1},
		{Length: 100, OutputSize: math.NaN()},
		{Length: 100, Deadline: -3},
	}
	for i, spec := range bad {
		if _, err := svc.Submit([]CloudletSpec{spec}); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
	if _, err := svc.Submit(nil); err == nil {
		t.Error("empty submission accepted")
	}
	if got := svc.prom.submittedTotal(); got != 0 {
		t.Fatalf("invalid specs counted as submitted: %d", got)
	}
}

func TestServiceUnknownSchedulerRejected(t *testing.T) {
	if _, err := New(testEnv(t, 4, 1), Config{Scheduler: "no-such-alg"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := New(testEnv(t, 4, 1), Config{}); err == nil {
		t.Fatal("missing scheduler accepted")
	}
}

func TestServiceOnlinePolicyEndToEnd(t *testing.T) {
	svc := startService(t, Config{Scheduler: "online-eft", BatchSize: 16})
	ids, err := svc.Submit(specN(40))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, svc)
	for _, id := range ids {
		rec, _ := svc.Status(id)
		if rec.State != StateFinished {
			t.Fatalf("cloudlet %d not finished: %+v", id, rec)
		}
	}
	if got := svc.prom.finishedTotal(); got != 40 {
		t.Fatalf("finished = %d, want 40", got)
	}
}

func TestServiceDeadlinesRideTheSessionClock(t *testing.T) {
	svc := startService(t, Config{Scheduler: "base", BatchSize: 4})
	// Generous deadline: every cloudlet should make it.
	specs := []CloudletSpec{
		{Length: 500, Deadline: 1e6},
		{Length: 500, Deadline: 1e6},
	}
	ids, err := svc.Submit(specs)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, svc)
	for _, id := range ids {
		rec, _ := svc.Status(id)
		if rec.State != StateFinished {
			t.Fatalf("cloudlet %d: %+v", id, rec)
		}
	}
}

func TestServiceDrainRejectsNewWork(t *testing.T) {
	svc := startService(t, Config{Scheduler: "base"})
	drain(t, svc)
	if _, err := svc.Submit(specN(1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining, got %v", err)
	}
	if svc.Accepting() {
		t.Fatal("still accepting after drain")
	}
	// Idempotent: a second drain returns immediately.
	drain(t, svc)
}

func TestServiceBackpressure(t *testing.T) {
	// With the shard's mapper held, everything submitted stays queued;
	// admission slots are held until the shard takes a batch, so the cap of
	// 8 stays exhausted.
	svc := startService(t, Config{Scheduler: "hold-plant", QueueCap: 8})
	occupy(t, svc, newHoldGate(t))
	if _, err := svc.Submit(specN(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(specN(1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if got := svc.prom.rejectedTotal(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	// All-or-nothing: a multi-spec request never half-lands. The held
	// cloudlet counts as submitted too.
	if got := svc.prom.submittedTotal(); got != 1+8 {
		t.Fatalf("submitted = %d, want 1+8 (no partial acceptance)", got)
	}
	if depth := svc.prom.queueDepthTotal(); depth != 8 {
		t.Fatalf("queue depth = %v, want 8", depth)
	}
}

// A request that routes more cloudlets to one shard than the shard's whole
// queue holds can never be admitted, so it is ErrTooLarge, not the
// retryable ErrQueueFull, and it takes no admission slot.
func TestServiceRejectsRequestLargerThanQueue(t *testing.T) {
	svc := startService(t, Config{Scheduler: "base", QueueCap: 4})
	if _, err := svc.Submit(specN(5)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	if depth := svc.prom.queueDepthTotal(); depth != 0 {
		t.Fatalf("queue depth = %v after an oversized request, want 0", depth)
	}
	// The queue is still whole: a request of exactly QueueCap fits.
	if _, err := svc.Submit(specN(4)); err != nil {
		t.Fatalf("QueueCap-sized request: %v", err)
	}

	// The bound is per shard: six equal cloudlets over two shards of 4
	// route three to each and are admitted.
	sharded := startService(t, Config{Scheduler: "base", Shards: 2, QueueCap: 4})
	specs := make([]CloudletSpec, 6)
	for i := range specs {
		specs[i] = CloudletSpec{Length: 1000}
	}
	if _, err := sharded.Submit(specs); err != nil {
		t.Fatalf("request within every shard's cap: %v", err)
	}
}

// TestServiceConcurrentSubmissionsRace is the acceptance gate: ≥1000
// concurrent submissions against a deliberately small queue, under -race in
// verify.sh. Every submission must be either accepted-and-finished or
// rejected with queue-full — no lost cloudlets, and SIGTERM-style drain
// completes everything in flight.
func TestServiceConcurrentSubmissionsRace(t *testing.T) {
	svc := startService(t, Config{
		Scheduler: "base",
		BatchSize: 32,
		QueueCap:  256,
	})
	const submitters = 1200
	var accepted, rejected atomic.Int64
	var acceptedIDs sync.Map
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids, err := svc.Submit([]CloudletSpec{{Length: 500 + float64(i%9)*100}})
			switch {
			case err == nil:
				accepted.Add(1)
				acceptedIDs.Store(ids[0], struct{}{})
			case errors.Is(err, ErrQueueFull):
				rejected.Add(1)
			default:
				t.Errorf("submitter %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if accepted.Load()+rejected.Load() != submitters {
		t.Fatalf("accounting hole: %d accepted + %d rejected != %d", accepted.Load(), rejected.Load(), submitters)
	}
	if accepted.Load() == 0 {
		t.Fatal("nothing was accepted")
	}
	t.Logf("accepted %d, rejected %d", accepted.Load(), rejected.Load())

	drain(t, svc) // SIGTERM path: must complete every in-flight cloudlet

	var lost int
	acceptedIDs.Range(func(k, _ any) bool {
		rec, ok := svc.Status(k.(int))
		if !ok || rec.State != StateFinished {
			lost++
			t.Errorf("cloudlet %v lost after drain: %+v (ok=%v)", k, rec, ok)
		}
		return lost < 10 // don't spam
	})
	if got := svc.prom.finishedTotal(); got != uint64(accepted.Load()) {
		t.Fatalf("finished %d != accepted %d", got, accepted.Load())
	}
	if got := svc.prom.rejectedTotal(); got != uint64(rejected.Load()) {
		t.Fatalf("rejected counter %d != observed %d", got, rejected.Load())
	}
	// The metrics surface reports the scheduling-time histogram.
	var sb strings.Builder
	svc.WriteMetrics(&sb)
	out := sb.String()
	if !strings.Contains(out, `schedd_scheduling_seconds_count{scheduler="base"}`) {
		t.Fatalf("per-scheduler scheduling histogram missing:\n%s", out)
	}
}

func TestServiceBioInspiredSchedulerBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("aco mapping in -short mode")
	}
	svc := startService(t, Config{Scheduler: "aco", BatchSize: 25})
	ids, err := svc.Submit(specN(50))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, svc)
	for _, id := range ids {
		rec, _ := svc.Status(id)
		if rec.State != StateFinished {
			t.Fatalf("cloudlet %d not finished under aco: %+v", id, rec)
		}
	}
	var sb strings.Builder
	svc.WriteMetrics(&sb)
	if !strings.Contains(sb.String(), `scheduler="aco"`) {
		t.Fatal("aco scheduling histogram missing from /metrics")
	}
}

func TestStatusStoreRetention(t *testing.T) {
	st := newStatusStore(2)
	for id := 1; id <= 4; id++ {
		st.add(id, 0)
		c := cloud.NewCloudlet(id, 100, 1, 0, 0)
		st.finish(c) // VM nil: state still transitions
	}
	if _, ok := st.get(1); ok {
		t.Fatal("oldest finished record not evicted")
	}
	if _, ok := st.get(4); !ok {
		t.Fatal("newest record evicted")
	}
	if n := st.countState(StateFinished); n != 2 {
		t.Fatalf("retained %d finished records, want 2", n)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Scheduler: "base"}.withDefaults()
	if cfg.BatchSize != DefaultBatchSize || cfg.QueueCap != DefaultQueueCap ||
		cfg.Shards != DefaultShards {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestAdmissionAllOrNothing(t *testing.T) {
	a := &admission{cap: 10}
	if !a.tryAcquire(10) {
		t.Fatal("full-capacity acquire refused")
	}
	if a.tryAcquire(1) {
		t.Fatal("over-capacity acquire allowed")
	}
	a.release(4)
	if a.depth() != 6 {
		t.Fatalf("depth = %v, want 6", a.depth())
	}
	if a.tryAcquire(5) {
		t.Fatal("acquire beyond remaining capacity allowed")
	}
	if !a.tryAcquire(4) {
		t.Fatal("acquire within remaining capacity refused")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("release underflow not caught")
			}
		}()
		a.release(100)
	}()
}

func ExampleService() {
	fleet := workload.GenerateVMs(workload.HeterogeneousVMSpec(), 4, 1)
	env, _ := workload.GenerateEnvironment(workload.HeterogeneousDatacenterSpec(1), fleet, 1)
	svc, _ := New(env, Config{Scheduler: "base", BatchSize: 2})
	ids, _ := svc.Submit([]CloudletSpec{{Length: 1000}, {Length: 2000}})
	_ = svc.Drain(context.Background())
	rec, _ := svc.Status(ids[1])
	fmt.Println(rec.State)
	// Output: finished
}
