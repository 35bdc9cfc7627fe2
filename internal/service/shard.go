package service

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/online"
	"bioschedsim/internal/sched"
)

// shardSeedStride offsets consecutive shards' random streams far enough
// apart that they can never collide. Shard 0's stream is exactly the
// unsharded daemon's.
const shardSeedStride = int64(1) << 32

// shard is one independent slice of the daemon: a contiguous VM range, its
// own admission gate, and one goroutine that coalesces, maps and executes
// its batches on a persistent online.Session whose broker and simulated
// clock survive across batches. Shards share nothing mutable — each has its
// own engine, mapper, random stream and metric counters — so N shards
// execute genuinely concurrently and a hot shard's backpressure never
// stalls the others.
type shard struct {
	index int
	svc   *Service
	vms   []*cloud.VM

	adm *admission
	// pending carries one request's cloudlets for this shard per unit.
	pending chan []*submission

	// The serve goroutine owns the session, the mapper and its stream, so
	// none of them needs a lock. mapper is nil for online policies, which
	// place through the session.
	session *online.Session
	mapper  sched.Scheduler
	rand    *rand.Rand

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
		m, err := sched.New(cfg.Scheduler)
		if err != nil {
			return nil, err
		}
		sh.mapper = m
		sh.rand = rand.New(rand.NewSource(seed))
	}
	if err := sh.bind(policy); err != nil {
		return nil, err
	}
	return sh, nil
}

// bind gives the shard a fresh session over its VMs, placed by policy (nil
// for a batch mapper) and wired into the status store and the shard's
// counters.
func (sh *shard) bind(policy online.Scheduler) error {
	session, err := online.NewSubsetSession(sh.svc.env, sh.vms, policy, cloud.TimeSharedFactory)
	if err != nil {
		return err
	}
	session.OnFinish(func(c *cloud.Cloudlet) {
		sh.svc.stat.finish(c)
		sh.prom.finished.Inc()
	})
	sh.session = session
	return nil
}

// start launches the shard's serve goroutine on the service's wait group.
func (sh *shard) start() {
	sh.svc.wg.Add(1)
	go func() { defer sh.svc.wg.Done(); sh.serve() }()
}

// serve is the shard's only goroutine. It blocks for the first pending
// unit, takes every unit already queued without blocking, up to
// cfg.BatchSize cloudlets, releases their admission slots, and maps and
// executes the batch; then it repeats. A lone cloudlet on an idle shard is
// thus mapped at once, and under load batches grow by themselves to
// whatever queued while the previous one ran. A request's cloudlets for
// this shard arrive as one unit and join a batch only whole; a unit that
// does not fit opens the next batch, and one larger than cfg.BatchSize is
// split. When pending closes (drain), serve finishes what is queued and
// returns.
func (sh *shard) serve() {
	size := sh.svc.cfg.BatchSize
	var carry []*submission
	for {
		if len(carry) == 0 {
			unit, ok := <-sh.pending
			if !ok {
				return
			}
			carry = unit
		}
		n := min(len(carry), size)
		batch := carry[:n:n] // capped: appending never writes into carry
		carry = carry[n:]
	fill:
		for len(batch) < size {
			select {
			case unit, ok := <-sh.pending:
				if !ok {
					break fill
				}
				if len(batch)+len(unit) > size {
					carry = unit
					break fill
				}
				batch = append(batch, unit...)
			default:
				break fill
			}
		}
		sh.adm.release(len(batch))
		sh.prom.inflight.Add(1)
		sh.runBatch(batch)
		sh.prom.inflight.Add(-1)
	}
}

// runBatch drives one batch through mapping and execution, and records its
// metrics. A batch that fails to map marks its cloudlets failed, except
// those an online policy placed before the failure: they finish, so each
// cloudlet ends in exactly one terminal state.
func (sh *shard) runBatch(subs []*submission) {
	cls := make([]*cloud.Cloudlet, len(subs))
	ids := make([]int, len(subs))
	for i, sub := range subs {
		cls[i] = sub.cloudlet
		ids[i] = sub.cloudlet.ID
	}
	batchNo := int(sh.svc.batchNo.Add(1))
	sh.svc.stat.scheduling(ids, batchNo)

	finished, schedTime, err := sh.mapAndExecute(subs, cls)
	if err != nil {
		var pe *online.PlaceError
		if errors.As(err, &pe) {
			ids = ids[pe.Placed:]
		}
		sh.prom.failed.Add(uint64(len(ids)))
		sh.svc.stat.fail(ids, err.Error())
		return
	}
	sh.svc.prom.observeBatch(sh.prom, schedTime, metrics.CollectRunStats(finished))
}

// mapAndExecute performs the mode-specific mapping step and the execution
// step on this shard's session, returning the batch's finished cloudlets
// and the wall-clock scheduling time.
func (sh *shard) mapAndExecute(subs []*submission, cls []*cloud.Cloudlet) ([]*cloud.Cloudlet, time.Duration, error) {
	if sh.mapper == nil {
		// Online mode: placement is stateful and sees live residency.
		sh.applyDeadlines(subs)
		start := time.Now()
		if err := sh.session.PlaceBatch(cls); err != nil {
			sh.session.Run() // what was placed before the failure finishes now
			return nil, 0, err
		}
		schedTime := time.Since(start)
		return sh.session.Run(), schedTime, nil
	}

	ctx := &sched.Context{
		Cloudlets:   cls,
		VMs:         append([]*cloud.VM(nil), sh.vms...),
		Datacenters: sh.svc.env.Datacenters,
		Rand:        sh.rand,
	}
	start := time.Now()
	assignments, err := sh.schedule(ctx)
	if err != nil {
		return nil, 0, err
	}
	if err := sched.ValidateAssignments(ctx, assignments); err != nil {
		return nil, 0, err
	}
	schedTime := time.Since(start)

	sh.applyDeadlines(subs)
	for _, a := range assignments {
		if err := sh.session.SubmitPlaced(a.Cloudlet, a.VM); err != nil {
			return nil, schedTime, err
		}
	}
	return sh.session.Run(), schedTime, nil
}

// schedule runs the shard's batch mapper and turns a panic in it into an
// error, so a faulty scheduler fails only the batch it was mapping: the
// cloudlets are marked failed with the panic text, schedd_failed_total
// counts them, and the shard goes on serving.
func (sh *shard) schedule(ctx *sched.Context) (as []sched.Assignment, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("scheduler %s panicked: %v", sh.svc.cfg.Scheduler, p)
		}
	}()
	return sh.mapper.Schedule(ctx)
}

// applyDeadlines converts relative SLA bounds to the shard session's
// absolute simulated clock at hand-off time.
func (sh *shard) applyDeadlines(subs []*submission) {
	now := sh.session.Now()
	for _, sub := range subs {
		if sub.deadline > 0 {
			sub.cloudlet.Deadline = now + sub.deadline
		}
	}
}
