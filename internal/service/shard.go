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
// own admission gate, coalescing batcher, mapping worker pool, and a
// persistent online.Session whose broker and simulated clock survive across
// batches. Shards share nothing mutable — each has its own engine, its own
// execution lock, and its own metric counters — so N shards execute
// genuinely concurrently and a hot shard's backpressure never stalls the
// others.
type shard struct {
	index int
	svc   *Service
	vms   []*cloud.VM

	adm     *admission
	pending chan *submission
	batches chan []*submission

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
		pending: make(chan *submission, cfg.QueueCap),
		batches: make(chan []*submission, cfg.Workers),
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

// batchLoop coalesces the shard's pending submissions into batches: a batch
// flushes when it reaches cfg.BatchSize cloudlets or cfg.FlushInterval after
// its first cloudlet arrived, whichever comes first. The flush timer is
// armed only while a partial batch exists, so an idle shard fires no timers.
// When the pending channel closes (drain), the loop flushes whatever it
// holds — possibly an empty batch, which the execution path absorbs via
// online.ErrEmptyBatch — and closes the batch channel to stop the workers.
func (sh *shard) batchLoop() {
	defer close(sh.batches)
	var (
		batch  []*submission
		timer  *time.Timer
		timerC <-chan time.Time
	)
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			timerC = nil
		}
	}
	flush := func() {
		stopTimer()
		out := batch
		batch = nil
		sh.batches <- out // blocks when workers are saturated: backpressure
		sh.adm.release(len(out))
	}
	for {
		select {
		case sub, ok := <-sh.pending:
			if !ok {
				// Drain: flush the remainder unconditionally — empty flushes
				// exercise the typed-empty-batch path by design.
				flush()
				return
			}
			batch = append(batch, sub)
			if len(batch) == 1 {
				timer = time.NewTimer(sh.svc.cfg.FlushInterval)
				timerC = timer.C
			}
			if len(batch) >= sh.svc.cfg.BatchSize {
				flush()
			}
		case <-timerC:
			timer = nil
			timerC = nil
			flush()
		}
	}
}

// workerLoop maps and executes flushed batches until the batch channel
// closes.
func (sh *shard) workerLoop(worker int) {
	for batch := range sh.batches {
		sh.runBatch(worker, batch)
	}
}

// runBatch drives one flushed batch through mapping and execution, and
// records its metrics. Empty flushes are absorbed via the typed
// online.ErrEmptyBatch and counted, never treated as failures.
func (sh *shard) runBatch(worker int, subs []*submission) {
	sh.prom.inflight.Add(1)
	defer sh.prom.inflight.Add(-1)

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
	rep := metrics.Collect(sh.svc.cfg.Scheduler, finished, sh.vms, schedTime)
	sh.svc.prom.observeBatch(sh.prom, rep, metrics.CollectRunStats(finished))
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
