package service

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/online"
	"bioschedsim/internal/sched"
)

// shardPanicPlant is a batch scheduler that maps like "base" on the shard
// owning VM 0 and panics on every other shard.
type shardPanicPlant struct{ base sched.Scheduler }

const shardPanicText = "plant: no mapping off shard 0"

func (p *shardPanicPlant) Name() string { return "shard-panic-plant" }

func (p *shardPanicPlant) Schedule(ctx *sched.Context) ([]sched.Assignment, error) {
	for _, vm := range ctx.VMs {
		if vm.ID == 0 {
			return p.base.Schedule(ctx)
		}
	}
	panic(shardPanicText)
}

func init() {
	sched.Register("shard-panic-plant", func() sched.Scheduler {
		return &shardPanicPlant{base: mustBase()}
	})
	sched.Register("hold-plant", func() sched.Scheduler {
		return &holdPlant{base: mustBase()}
	})
}

func mustBase() sched.Scheduler {
	base, err := sched.New("base")
	if err != nil {
		panic(err)
	}
	return base
}

// holdPlant is a batch scheduler that maps like "base", but only once the
// installed holdGate lets it: each call reports its batch size on the
// gate's held channel and then blocks until the gate opens. Tests use it to
// keep a shard's mapper busy for exactly as long as they need.
type holdPlant struct{ base sched.Scheduler }

// holdGate is the switch a test installs for every holdPlant instance.
type holdGate struct {
	held    chan int      // the size of each batch the plant starts mapping
	release chan struct{} // closed to let every held batch map
	once    sync.Once
}

var installedGate atomic.Pointer[holdGate]

func (p *holdPlant) Name() string { return "hold-plant" }

func (p *holdPlant) Schedule(ctx *sched.Context) ([]sched.Assignment, error) {
	if g := installedGate.Load(); g != nil {
		select {
		case g.held <- len(ctx.Cloudlets):
		case <-g.release:
		}
		<-g.release
	}
	return p.base.Schedule(ctx)
}

// newHoldGate installs a closed gate for the hold plant and opens it at
// cleanup. Call it after starting the service, so that the gate opens
// before the service drains.
func newHoldGate(t testing.TB) *holdGate {
	t.Helper()
	g := &holdGate{held: make(chan int, 64), release: make(chan struct{})}
	installedGate.Store(g)
	t.Cleanup(func() {
		g.open()
		installedGate.CompareAndSwap(g, nil)
	})
	return g
}

func (g *holdGate) open() { g.once.Do(func() { close(g.release) }) }

// wait returns the size of the next batch the plant holds.
func (g *holdGate) wait(t testing.TB) int {
	t.Helper()
	select {
	case n := <-g.held:
		return n
	case <-time.After(10 * time.Second):
		t.Fatal("no batch reached the hold plant")
		return 0
	}
}

// occupy saturates every shard: it submits one cloudlet per shard, waits
// until the plant holds each shard's batch, and waits until the shards have
// released the held cloudlets' admission slots. Every later submission then
// stays in its shard's queue until the gate opens.
func occupy(t testing.TB, svc *Service, g *holdGate) {
	t.Helper()
	specs := make([]CloudletSpec, len(svc.shards))
	for i := range specs {
		specs[i] = CloudletSpec{Length: 1}
	}
	if _, err := svc.Submit(specs); err != nil {
		t.Fatal(err)
	}
	for range svc.shards {
		if n := g.wait(t); n != 1 {
			t.Fatalf("held a batch of %d, want 1", n)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.prom.queueDepthTotal() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %v after every shard's batch was held, want 0", svc.prom.queueDepthTotal())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDispatcherDeterministicLeastWork(t *testing.T) {
	// Same seed, same length stream → identical routing decisions.
	a, b := newDispatcher(4, 99), newDispatcher(4, 99)
	lengths := []float64{5, 1, 1, 7, 2, 2, 2, 9, 1, 3}
	for i, l := range lengths {
		if ra, rb := a.route(l), b.route(l); ra != rb {
			t.Fatalf("decision %d diverged: %d vs %d", i, ra, rb)
		}
	}

	// Least outstanding work: after a heavy cloudlet lands on one shard,
	// light ones flow to the other until it catches up.
	d := newDispatcher(2, 7)
	heavy := d.route(100)
	for i := 0; i < 50; i++ {
		if got := d.route(1); got == heavy {
			t.Fatalf("light cloudlet %d routed to the heavy shard", i)
		}
	}

	// Equal lengths spread exactly evenly: balanced filling.
	d = newDispatcher(4, 3)
	counts := make([]int, 4)
	for i := 0; i < 100; i++ {
		counts[d.route(1)]++
	}
	for i, n := range counts {
		if n != 25 {
			t.Fatalf("shard %d got %d of 100 equal-length cloudlets: %v", i, n, counts)
		}
	}
}

func TestConfigValidateSinglePath(t *testing.T) {
	bad := map[string]Config{
		"no scheduler":      {},
		"unknown scheduler": {Scheduler: "no-such-alg", Shards: 1},
		"zero shards":       {Scheduler: "base", Shards: 0},
		"negative shards":   {Scheduler: "base", Shards: -2},
		"shards over fleet": {Scheduler: "base", Shards: 9},
	}
	for name, cfg := range bad {
		if err := cfg.Validate(8); err == nil {
			t.Errorf("%s: accepted by Validate: %+v", name, cfg)
		}
	}
	ok := Config{Scheduler: "base", Shards: 4}
	if err := ok.Validate(8); err != nil {
		t.Fatalf("valid sharded config rejected: %v", err)
	}

	// New funnels through the same path: a negative -shards value must be
	// rejected, not silently defaulted.
	if _, err := New(testEnv(t, 8, 1), Config{Scheduler: "base", Shards: -1}); err == nil {
		t.Fatal("New accepted negative Shards")
	}
	if _, err := New(testEnv(t, 4, 1), Config{Scheduler: "base", Shards: 5}); err == nil {
		t.Fatal("New accepted more shards than VMs")
	}
}

func TestServiceShardedEndToEnd(t *testing.T) {
	svc := startService(t, Config{Scheduler: "base", Shards: 2, BatchSize: 8})
	ids, err := svc.Submit(specN(60))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, svc)

	served := make(map[int]int)
	for _, id := range ids {
		rec, ok := svc.Status(id)
		if !ok || rec.State != StateFinished {
			t.Fatalf("cloudlet %d: %+v ok=%v", id, rec, ok)
		}
		if rec.Shard < 0 || rec.Shard >= 2 {
			t.Fatalf("cloudlet %d on impossible shard %d", id, rec.Shard)
		}
		served[rec.Shard]++
		// The cloudlet must have executed on a VM its shard owns: VM identity
		// is preserved across the partition, never renumbered.
		owned := false
		for _, vm := range svc.shards[rec.Shard].vms {
			if vm.ID == rec.VM {
				owned = true
				break
			}
		}
		if !owned {
			t.Fatalf("cloudlet %d reports VM %d outside shard %d's range", id, rec.VM, rec.Shard)
		}
	}
	if len(served) != 2 {
		t.Fatalf("only shards %v served work; the dispatcher should spread 60 equal-ish cloudlets", served)
	}
	if got := svc.prom.finishedTotal(); got != 60 {
		t.Fatalf("merged finished = %d, want 60", got)
	}

	var sb strings.Builder
	svc.WriteMetrics(&sb)
	out := sb.String()
	for _, series := range []string{
		"schedd_finished_total 60",
		"schedd_shards 2",
		`schedd_shard_finished_total{shard="0"}`,
		`schedd_shard_finished_total{shard="1"}`,
		`schedd_shard_queue_depth{shard="1"} 0`,
		"schedd_run_sim_time_seconds",
		"schedd_run_imbalance",
		`schedd_scheduling_seconds_count{scheduler="base"}`,
	} {
		if !strings.Contains(out, series) {
			t.Errorf("sharded metrics output missing %q", series)
		}
	}
}

func TestServiceShardedPerShardBackpressure(t *testing.T) {
	// Each shard's mapper is held, so no queued cloudlet is taken off the
	// queue: admission slots stay taken and each shard's gate (cap 4) fills
	// independently.
	svc := startService(t, Config{Scheduler: "hold-plant", Shards: 2, QueueCap: 4})
	occupy(t, svc, newHoldGate(t))
	// The heavy cloudlet claims one shard; every light cloudlet after it
	// routes to the other, least-loaded shard.
	heavyIDs, err := svc.Submit([]CloudletSpec{{Length: 1e12}})
	if err != nil {
		t.Fatal(err)
	}
	heavyRec, _ := svc.Status(heavyIDs[0])
	light := 1 - heavyRec.Shard
	for i := 0; i < 4; i++ {
		ids, err := svc.Submit([]CloudletSpec{{Length: 1}})
		if err != nil {
			t.Fatalf("light cloudlet %d: %v", i, err)
		}
		if rec, _ := svc.Status(ids[0]); rec.Shard != light {
			t.Fatalf("light cloudlet %d routed to shard %d, want %d", i, rec.Shard, light)
		}
	}
	// Five cloudlets admitted against a per-shard cap of 4 — impossible
	// under a global gate — and the next light one is refused even though
	// the heavy shard still has three free slots: backpressure is a
	// per-shard signal, with no spillover.
	if _, err := svc.Submit([]CloudletSpec{{Length: 1}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull from the saturated shard, got %v", err)
	}
	if got := svc.shards[light].adm.depth(); got != 4 {
		t.Fatalf("light shard depth %v, want 4", got)
	}
	if got := svc.shards[heavyRec.Shard].adm.depth(); got != 1 {
		t.Fatalf("heavy shard depth %v, want 1", got)
	}
	if got := svc.shards[light].prom.rejected.Load(); got != 1 {
		t.Fatalf("saturated shard rejected %d, want 1", got)
	}
	if got := svc.shards[heavyRec.Shard].prom.rejected.Load(); got != 0 {
		t.Fatalf("unsaturated shard charged with a rejection: %d", got)
	}
}

// TestServiceShardedConcurrentRace is the sharded acceptance gate, run
// under -race in verify.sh: concurrent submissions across 4 shards, every
// one either accepted-and-finished or rejected with queue-full, and drain
// completes all in-flight work on every shard.
func TestServiceShardedConcurrentRace(t *testing.T) {
	svc := startService(t, Config{
		Scheduler: "base", Shards: 4,
		BatchSize: 16, QueueCap: 64,
	})
	const submitters = 800
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
		t.Fatalf("accounting hole: %d + %d != %d", accepted.Load(), rejected.Load(), submitters)
	}
	if accepted.Load() == 0 {
		t.Fatal("nothing was accepted")
	}

	drain(t, svc)

	acceptedIDs.Range(func(k, _ any) bool {
		rec, ok := svc.Status(k.(int))
		if !ok || rec.State != StateFinished {
			t.Errorf("cloudlet %v lost after drain: %+v (ok=%v)", k, rec, ok)
			return false
		}
		return true
	})
	if got := svc.prom.finishedTotal(); got != uint64(accepted.Load()) {
		t.Fatalf("merged finished %d != accepted %d", got, accepted.Load())
	}
	if got := svc.prom.failedTotal(); got != 0 {
		t.Fatalf("failed = %d, want 0", got)
	}
}

func TestServiceShardedOnlinePolicy(t *testing.T) {
	svc := startService(t, Config{Scheduler: "online-eft", Shards: 2, BatchSize: 8})
	ids, err := svc.Submit(specN(30))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, svc)
	for _, id := range ids {
		rec, _ := svc.Status(id)
		if rec.State != StateFinished {
			t.Fatalf("cloudlet %d not finished under sharded online policy: %+v", id, rec)
		}
	}
	if got := svc.prom.finishedTotal(); got != 30 {
		t.Fatalf("finished = %d, want 30", got)
	}
}

// TestServiceShardedSchedulerPanicFailsOnlyItsBatch: a batch scheduler that
// panics on one shard of two fails just the batches it was mapping. Their
// cloudlets are marked failed with the panic text and counted in
// schedd_failed_total; the daemon keeps accepting, the other shard keeps
// finishing work after the panics, and after drain every accepted
// cloudlet is either finished or failed.
func TestServiceShardedSchedulerPanicFailsOnlyItsBatch(t *testing.T) {
	svc := startService(t, Config{Scheduler: "shard-panic-plant", Shards: 2, BatchSize: 8})
	if svc.shards[0].vms[0].ID != 0 {
		t.Fatalf("shard 0 starts at VM %d; the plant keys on VM 0", svc.shards[0].vms[0].ID)
	}
	ids, err := svc.Submit(specN(40))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for svc.prom.failedTotal() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no batch failed on the panicking shard")
		}
		time.Sleep(time.Millisecond)
	}
	finishedBefore := svc.shards[0].prom.finished.Load()
	if !svc.Accepting() {
		t.Fatal("the daemon stopped accepting after a scheduler panic")
	}
	more, err := svc.Submit(specN(40))
	if err != nil {
		t.Fatalf("submit after a scheduler panic: %v", err)
	}
	ids = append(ids, more...)
	drain(t, svc)

	states := map[int]map[string]int{0: {}, 1: {}}
	for _, id := range ids {
		rec, ok := svc.Status(id)
		if !ok {
			t.Fatalf("cloudlet %d has no status", id)
		}
		states[rec.Shard][rec.State]++
		if rec.State == StateFailed && !strings.Contains(rec.Error, shardPanicText) {
			t.Errorf("cloudlet %d failed with %q, want the panic text", id, rec.Error)
		}
	}
	if states[0][StateFinished] == 0 || len(states[0]) != 1 {
		t.Errorf("shard 0 states %v, want every cloudlet finished", states[0])
	}
	if states[1][StateFailed] == 0 || len(states[1]) != 1 {
		t.Errorf("shard 1 states %v, want every cloudlet failed", states[1])
	}
	if got := svc.shards[0].prom.finished.Load(); got <= finishedBefore {
		t.Errorf("shard 0 finished %d cloudlets, no more than the %d before the second wave", got, finishedBefore)
	}
	finished, failed := svc.prom.finishedTotal(), svc.prom.failedTotal()
	if finished+failed != uint64(len(ids)) {
		t.Errorf("accepted %d, but finished %d + failed %d", len(ids), finished, failed)
	}
	var sb strings.Builder
	svc.WriteMetrics(&sb)
	if want := fmt.Sprintf("schedd_failed_total %d\n", failed); !strings.Contains(sb.String(), want) {
		t.Errorf("metrics output missing %q", want)
	}
}

// kthPanicPolicy places like its inner online policy but panics on its
// k-th Place.
type kthPanicPolicy struct {
	online.Scheduler
	k, calls int
}

const kthPanicText = "plant: k-th online placement"

func (p *kthPanicPolicy) Place(c *cloud.Cloudlet, vms []*cloud.VM) (*cloud.VM, error) {
	if p.calls++; p.calls == p.k {
		panic(kthPanicText)
	}
	return p.Scheduler.Place(c, vms)
}

// TestServiceOnlinePolicyPanicFailsOnlyUnplaced: an online policy that
// panics in the middle of a batch fails only the cloudlets it had not
// placed. The ones placed before the panic finish even though no batch
// follows, and after drain every accepted cloudlet is in exactly one
// terminal state: accepted = finished + failed.
func TestServiceOnlinePolicyPanicFailsOnlyUnplaced(t *testing.T) {
	// 20 cloudlets map as batches of 8, 8 and 4; the plant panics placing
	// the 18th, the second of the last batch.
	const k = 18
	svc := startService(t, Config{Scheduler: "online-rr", BatchSize: 8})
	if err := svc.shards[0].bind(&kthPanicPolicy{Scheduler: online.NewRoundRobin(), k: k}); err != nil {
		t.Fatal(err)
	}
	ids, err := svc.Submit(specN(20))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, svc)

	for i, id := range ids {
		rec, ok := svc.Status(id)
		if !ok {
			t.Fatalf("cloudlet %d has no status", id)
		}
		want := StateFinished
		if i >= k-1 {
			want = StateFailed
			if !strings.Contains(rec.Error, kthPanicText) || !strings.Contains(rec.Error, fmt.Sprintf("placing cloudlet %d", ids[k-1])) {
				t.Errorf("cloudlet %d failed with %q, want the panic text and the cloudlet it hit", id, rec.Error)
			}
		}
		if rec.State != want {
			t.Errorf("cloudlet %d (position %d) is %s, want %s", id, i, rec.State, want)
		}
	}
	finished, failed := svc.prom.finishedTotal(), svc.prom.failedTotal()
	if finished != k-1 || failed != uint64(len(ids)-k+1) {
		t.Errorf("accepted %d, finished %d, failed %d; want %d finished and the rest failed", len(ids), finished, failed, k-1)
	}
}
