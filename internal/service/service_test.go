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
	svc := startService(t, Config{Scheduler: "base", BatchSize: 8, FlushInterval: time.Hour})
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

// A lone cloudlet on an idle shard goes to a mapper at once: it finishes
// long before the hour-long FlushInterval, in a batch of its own.
func TestServiceIdleShardFlushesAtOnce(t *testing.T) {
	svc := startService(t, Config{Scheduler: "base", BatchSize: 1 << 20, FlushInterval: time.Hour})
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

// While one batch is mapping, the next partial batch lingers: it reaches
// the second worker FlushInterval after its first cloudlet, not before,
// and a request's cloudlets travel in it together.
func TestServiceLingerWaitsForSecondWorker(t *testing.T) {
	const linger = 100 * time.Millisecond
	svc := startService(t, Config{Scheduler: "hold-plant", Workers: 2, BatchSize: 1 << 20, FlushInterval: linger})
	g := newHoldGate(t)
	if _, err := svc.Submit(specN(1)); err != nil {
		t.Fatal(err)
	}
	if n := g.wait(t); n != 1 {
		t.Fatalf("first batch holds %d cloudlets, want 1", n)
	}
	start := time.Now()
	if _, err := svc.Submit(specN(3)); err != nil {
		t.Fatal(err)
	}
	n := g.wait(t)
	if waited := time.Since(start); waited < linger {
		t.Fatalf("partial batch reached the second worker after %v, before FlushInterval %v", waited, linger)
	}
	if n != 3 {
		t.Fatalf("lingering batch holds %d cloudlets, want the whole 3-cloudlet request", n)
	}
	g.open()
	drain(t, svc)
	if got, want := svc.prom.finishedTotal(), uint64(4); got != want {
		t.Fatalf("finished = %d, want %d", got, want)
	}
	if got := svc.prom.batchesTotal(); got != 2 {
		t.Fatalf("batches = %d, want 2", got)
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
	svc := startService(t, Config{Scheduler: "online-eft", BatchSize: 16, FlushInterval: 5 * time.Millisecond})
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
	svc := startService(t, Config{Scheduler: "base", BatchSize: 4, FlushInterval: 5 * time.Millisecond})
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

func TestServiceEmptyFlushOnDrain(t *testing.T) {
	svc := startService(t, Config{Scheduler: "base"})
	drain(t, svc) // nothing was ever submitted: the final flush is empty
	if got := svc.prom.emptyFlushesTotal(); got != 1 {
		t.Fatalf("empty flushes = %d, want 1", got)
	}
	if got := svc.prom.failedTotal(); got != 0 {
		t.Fatalf("empty flush misreported as failure: failed = %d", got)
	}
}

func TestServiceBackpressure(t *testing.T) {
	// With the shard's only worker held, a long flush interval and huge
	// batch size park everything in the batcher's accumulation buffer;
	// admission slots are held until hand-off, so the cap of 8 stays
	// exhausted.
	svc := startService(t, Config{Scheduler: "hold-plant", Workers: 1, BatchSize: 1 << 20, FlushInterval: time.Hour, QueueCap: 8})
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
		Scheduler:     "base",
		BatchSize:     32,
		FlushInterval: 2 * time.Millisecond,
		QueueCap:      256,
		Workers:       4,
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
	svc := startService(t, Config{Scheduler: "aco", BatchSize: 25, FlushInterval: 5 * time.Millisecond, Workers: 2})
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
		cfg.Workers != DefaultWorkers || cfg.FlushInterval != DefaultFlushInterval ||
		cfg.StatusRetention != DefaultStatusRetention {
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
	svc, _ := New(env, Config{Scheduler: "base", BatchSize: 2, FlushInterval: time.Millisecond})
	ids, _ := svc.Submit([]CloudletSpec{{Length: 1000}, {Length: 2000}})
	_ = svc.Drain(context.Background())
	rec, _ := svc.Status(ids[1])
	fmt.Println(rec.State)
	// Output: finished
}
