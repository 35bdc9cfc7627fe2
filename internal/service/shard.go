package service

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/online"
	"bioschedsim/internal/sched"
)

// shardSeedStride offsets consecutive shards' random streams far enough
// apart that per-worker seeds (seed + worker) can never collide across
// shards. Shard 0's streams are exactly the unsharded daemon's.
const shardSeedStride = int64(1) << 32

// shard is one independent slice of the daemon: a contiguous VM range, its
// own admission gate, work-conserving batcher, mapping worker pool, and a
// persistent online.Session whose broker and simulated clock survive across
// batches. Shards share nothing mutable — each has its own engine, its own
// execution lock, and its own metric counters — so N shards execute
// genuinely concurrently and a hot shard's backpressure never stalls the
// others.
type shard struct {
	index int
	svc   *Service
	vms   []*cloud.VM

	adm *admission
	// pending carries one request's cloudlets for this shard per unit.
	pending chan []*submission
	// batches hands batches to the mapping workers. It is unbuffered, so a
	// send succeeds only when a worker is free; idle wakes the batcher when
	// a worker finishes one (prom.inflight counts the batches in workers).
	batches chan []*submission
	idle    chan struct{}

	// execMu serializes every touch of this shard's session (placement for
	// online policies, broker submission, engine runs). Batch mapping runs
	// outside it, so cfg.Workers schedulers can search concurrently while
	// exactly one batch executes per shard.
	execMu sync.Mutex
	// guarded by: execMu
	session *online.Session

	// Batch-mode state: one scheduler instance and rand per worker, since
	// registry schedulers are not safe for concurrent Schedule calls.
	mappers []sched.Scheduler
	rands   []*rand.Rand

	prom *shardMetrics
}

// newShard builds shard index over its VM range, wiring completion events
// into the service-wide status store and the shard's own counters.
func newShard(svc *Service, index int, vms []*cloud.VM) (*shard, error) {
	cfg := svc.cfg
	sh := &shard{
		index:   index,
		svc:     svc,
		vms:     vms,
		adm:     &admission{cap: cfg.QueueCap},
		pending: make(chan []*submission, cfg.QueueCap),
		batches: make(chan []*submission),
		idle:    make(chan struct{}, 1),
	}
	sh.prom = newShardMetrics(sh.adm.depth)

	seed := cfg.Seed + int64(index)*shardSeedStride
	var policy online.Scheduler
	if online.IsPolicy(cfg.Scheduler) {
		var err error
		policy, err = online.NewPolicy(cfg.Scheduler, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
	} else {
		sh.mappers = make([]sched.Scheduler, cfg.Workers)
		sh.rands = make([]*rand.Rand, cfg.Workers)
		for i := range sh.mappers {
			m, err := sched.New(cfg.Scheduler, sched.WithWorkers(cfg.SchedWorkers))
			if err != nil {
				return nil, err
			}
			sh.mappers[i] = m
			sh.rands[i] = rand.New(rand.NewSource(seed + int64(i)))
		}
	}
	session, err := online.NewSubsetSession(svc.env, vms, policy, cloud.TimeSharedFactory)
	if err != nil {
		return nil, err
	}
	sh.session = session
	session.OnFinish(func(c *cloud.Cloudlet) {
		svc.stat.finish(c)
		sh.prom.finished.Inc()
	})
	return sh, nil
}

// start launches the shard's batcher and worker goroutines on the service's
// wait group.
func (sh *shard) start() {
	svc := sh.svc
	svc.wg.Add(1 + svc.cfg.Workers)
	go func() { defer svc.wg.Done(); sh.batchLoop() }()
	for i := 0; i < svc.cfg.Workers; i++ {
		i := i
		go func() { defer svc.wg.Done(); sh.workerLoop(i) }()
	}
}

// batchLoop coalesces the shard's pending requests into batches by
// Nagle's rule. While none of the shard's batches is mapping, a non-empty
// batch goes to a worker at once, so a lone cloudlet on an idle shard never
// waits for company. While a batch is mapping, the next one keeps filling
// and goes out when it holds cfg.BatchSize cloudlets or cfg.FlushInterval
// after its first cloudlet, whichever comes first — and then only to a free
// worker, since the hand-off channel is unbuffered. Under load batches thus
// grow by themselves, and FlushInterval bounds how long a partial batch
// waits for a second mapper. A request's cloudlets for this shard arrive as
// one unit and join a single batch whenever they fit in cfg.BatchSize; a
// unit that does not fit waits for the next batch, and one larger than
// cfg.BatchSize is split. When the pending channel closes (drain), the loop
// hands off whatever it holds — possibly an empty batch, which the
// execution path absorbs via online.ErrEmptyBatch — and closes the batch
// channel to stop the workers.
func (sh *shard) batchLoop() {
	defer close(sh.batches)
	cfg := sh.svc.cfg
	var (
		batch, carry []*submission
		in           = sh.pending
		lingering    bool // the linger timer runs for the current batch
		expired      bool // the current batch has lingered FlushInterval
	)
	linger := time.NewTimer(time.Hour)
	stopLinger(linger)
	defer linger.Stop()
	for {
		// Move the carried request into the batch when it fits whole, or
		// split it when it alone exceeds a batch.
		if len(carry) > 0 && (len(batch) == 0 || len(batch)+len(carry) <= cfg.BatchSize) {
			n := min(len(carry), cfg.BatchSize)
			batch = append(batch, carry[:n]...)
			carry = carry[n:]
		}
		if in == nil && len(carry) == 0 {
			// Drain: hand off the remainder unconditionally — empty flushes
			// exercise the typed-empty-batch path by design.
			sh.prom.inflight.Add(1)
			sh.batches <- batch
			sh.adm.release(len(batch))
			return
		}
		idle := sh.prom.inflight.Load() == 0
		if len(batch) > 0 && !idle && !lingering {
			linger.Reset(cfg.FlushInterval)
			lingering = true
		}
		var out chan<- []*submission
		if len(batch) > 0 && (idle || expired || len(carry) > 0 || len(batch) >= cfg.BatchSize) {
			out = sh.batches
		}
		var recv <-chan []*submission
		if len(carry) == 0 {
			recv = in
		}
		select {
		case unit, ok := <-recv:
			if !ok {
				in = nil
				continue
			}
			carry = unit
		case out <- batch:
			sh.prom.inflight.Add(1)
			sh.adm.release(len(batch))
			batch = nil
			if lingering {
				stopLinger(linger)
				lingering, expired = false, false
			}
		case <-linger.C:
			expired = true
		case <-sh.idle:
		}
	}
}

// stopLinger stops t and discards a tick it may already have sent, so the
// next Reset starts from a clean channel.
func stopLinger(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// workerLoop maps and executes flushed batches until the batch channel
// closes, and wakes the batcher after each one so a waiting partial batch
// can go out as soon as the shard is idle.
func (sh *shard) workerLoop(worker int) {
	for batch := range sh.batches {
		sh.runBatch(worker, batch)
		sh.prom.inflight.Add(-1)
		select {
		case sh.idle <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// runBatch drives one flushed batch through mapping and execution, and
// records its metrics. Empty flushes are absorbed via the typed
// online.ErrEmptyBatch and counted, never treated as failures.
func (sh *shard) runBatch(worker int, subs []*submission) {
	cls := make([]*cloud.Cloudlet, len(subs))
	ids := make([]int, len(subs))
	for i, sub := range subs {
		cls[i] = sub.cloudlet
		ids[i] = sub.cloudlet.ID
	}
	batchNo := int(sh.svc.batchNo.Add(1))
	sh.svc.stat.scheduling(ids, batchNo)

	finished, schedTime, err := sh.mapAndExecute(worker, subs, cls)
	if err != nil {
		if errors.Is(err, online.ErrEmptyBatch) {
			sh.prom.emptyFlushes.Inc()
			return
		}
		sh.prom.failed.Add(uint64(len(subs)))
		sh.svc.stat.fail(ids, err.Error())
		return
	}
	sh.svc.prom.observeBatch(sh.prom, sh.svc.cfg.Scheduler, schedTime, metrics.CollectRunStats(finished))
}

// mapAndExecute performs the mode-specific mapping step and the serialized
// execution step on this shard's session, returning the batch's finished
// cloudlets and the wall-clock scheduling time.
func (sh *shard) mapAndExecute(worker int, subs []*submission, cls []*cloud.Cloudlet) ([]*cloud.Cloudlet, time.Duration, error) {
	if sh.mappers == nil {
		// Online mode: placement is stateful and must see live residency,
		// so the whole step runs under the session lock.
		sh.execMu.Lock()
		defer sh.execMu.Unlock()
		sh.applyDeadlines(subs)
		start := time.Now()
		if err := sh.session.PlaceBatch(cls); err != nil {
			return nil, 0, err
		}
		schedTime := time.Since(start)
		return sh.session.Run(), schedTime, nil
	}

	// Batch mode: the expensive search runs outside the session lock so
	// workers overlap; only broker submission and the engine run serialize.
	if len(cls) == 0 {
		sh.execMu.Lock()
		defer sh.execMu.Unlock()
		return nil, 0, sh.session.PlaceBatch(nil)
	}
	ctx := &sched.Context{
		Cloudlets:   cls,
		VMs:         append([]*cloud.VM(nil), sh.vms...),
		Datacenters: sh.svc.env.Datacenters,
		Rand:        sh.rands[worker],
	}
	start := time.Now()
	assignments, err := sh.schedule(worker, ctx)
	if err != nil {
		return nil, 0, err
	}
	if err := sched.ValidateAssignments(ctx, assignments); err != nil {
		return nil, 0, err
	}
	schedTime := time.Since(start)

	sh.execMu.Lock()
	defer sh.execMu.Unlock()
	sh.applyDeadlines(subs)
	for _, a := range assignments {
		if err := sh.session.SubmitPlaced(a.Cloudlet, a.VM); err != nil {
			return nil, schedTime, err
		}
	}
	return sh.session.Run(), schedTime, nil
}

// schedule runs the worker's batch mapper and turns a panic in it into an
// error, so a faulty scheduler fails only the batch it was mapping: the
// cloudlets are marked failed with the panic text, schedd_failed_total
// counts them, and the shard goes on serving.
func (sh *shard) schedule(worker int, ctx *sched.Context) (as []sched.Assignment, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("scheduler %s panicked: %v", sh.svc.cfg.Scheduler, p)
		}
	}()
	return sh.mappers[worker].Schedule(ctx)
}

// applyDeadlines converts relative SLA bounds to the shard session's
// absolute simulated clock at hand-off time. Caller holds execMu.
func (sh *shard) applyDeadlines(subs []*submission) {
	//schedlint:ignore lockheld caller-holds contract: both mapAndExecute call sites enter with execMu held
	now := sh.session.Now()
	for _, sub := range subs {
		if sub.deadline > 0 {
			sub.cloudlet.Deadline = now + sub.deadline
		}
	}
}
