package service

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"bioschedsim/internal/cloud"
)

// CloudletSpec is the wire form of one unit of work.
type CloudletSpec struct {
	Length     float64 `json:"length"`                // MI, required > 0
	PEs        int     `json:"pes,omitempty"`         // default 1
	FileSize   float64 `json:"file_size,omitempty"`   // MB
	OutputSize float64 `json:"output_size,omitempty"` // MB
	// Deadline is an SLA bound in seconds relative to execution start; the
	// daemon converts it to the owning shard's absolute simulated clock when
	// the cloudlet's batch is handed to the broker. 0 means no deadline.
	Deadline float64 `json:"deadline,omitempty"`
}

// Validate rejects specs the cloud model cannot represent, so malformed
// requests fail with a 400 at the front door instead of a panic deep in
// cloud.NewCloudlet.
func (c CloudletSpec) Validate() error {
	if !(c.Length > 0) || math.IsInf(c.Length, 0) { // catches NaN too
		return fmt.Errorf("length must be positive and finite, got %v", c.Length)
	}
	if c.PEs < 0 {
		return fmt.Errorf("pes must be non-negative, got %d", c.PEs)
	}
	if c.FileSize < 0 || math.IsNaN(c.FileSize) || math.IsInf(c.FileSize, 0) {
		return fmt.Errorf("file_size must be non-negative and finite, got %v", c.FileSize)
	}
	if c.OutputSize < 0 || math.IsNaN(c.OutputSize) || math.IsInf(c.OutputSize, 0) {
		return fmt.Errorf("output_size must be non-negative and finite, got %v", c.OutputSize)
	}
	if c.Deadline < 0 || math.IsNaN(c.Deadline) || math.IsInf(c.Deadline, 0) {
		return fmt.Errorf("deadline must be non-negative and finite, got %v", c.Deadline)
	}
	return nil
}

// submission is one accepted cloudlet travelling from the queue into its
// shard's batch.
type submission struct {
	cloudlet *cloud.Cloudlet
	deadline float64 // relative seconds; applied on the shard's session clock
}

// Service is the scheduling daemon core: a deterministic load-aware
// dispatcher in front of cfg.Shards independent shard pipelines, each with
// its own admission gate, serving goroutine, and persistent engine over a
// contiguous slice of the VM fleet. The status
// store and cloudlet id space stay global, so clients address cloudlets the
// same way regardless of which shard ran them.
type Service struct {
	cfg  Config
	env  *cloud.Environment
	prom *promMetrics
	stat *statusStore

	shards []*shard
	disp   *dispatcher

	// closeMu guards every shard's pending channel against send-after-close:
	// Submit sends under the read lock, Drain closes under the write lock.
	closeMu   sync.RWMutex
	accepting atomic.Bool
	draining  atomic.Bool

	nextID  atomic.Int64
	batchNo atomic.Int64 // batch sequence, global across shards
	wg      sync.WaitGroup
}

// New builds and starts a daemon scheduling onto env with cfg. The
// environment must be valid and is owned by the service from here on.
func New(env *cloud.Environment, cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(len(env.VMs)); err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	ranges, err := cloud.PartitionVMs(env.VMs, cfg.Shards)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:  cfg,
		env:  env,
		stat: newStatusStore(statusRetention),
		disp: newDispatcher(cfg.Shards, cfg.Seed),
	}
	s.shards = make([]*shard, cfg.Shards)
	for i, vms := range ranges {
		sh, err := newShard(s, i, vms)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sh
	}
	s.prom = newPromMetrics(s.shards, cfg.Scheduler)

	s.accepting.Store(true)
	for _, sh := range s.shards {
		sh.start()
	}
	return s, nil
}

// Scheduler returns the configured mapping algorithm's name.
func (s *Service) Scheduler() string { return s.cfg.Scheduler }

// Config returns the daemon's effective (defaulted) configuration.
func (s *Service) Config() Config { return s.cfg }

// Shards returns the number of shard pipelines the daemon runs.
func (s *Service) Shards() int { return len(s.shards) }

// WriteMetrics renders the Prometheus text surface to w: the merged
// fleet-wide series under their historical names plus per-shard series
// labelled shard="i".
func (s *Service) WriteMetrics(w io.Writer) { s.prom.WritePrometheus(w) }

// Status returns cloudlet id's lifecycle record.
func (s *Service) Status(id int) (StatusRecord, bool) { return s.stat.get(id) }

// Accepting reports whether new submissions are admitted.
func (s *Service) Accepting() bool { return s.accepting.Load() }

// Submit validates and admits a request of one or more cloudlets
// atomically: either every spec gets a queue slot on its routed shard and
// an id, or the whole request is rejected (ErrTooLarge when it routes more
// cloudlets to one shard than its QueueCap, ErrQueueFull when any target
// shard lacks room right now, ErrDraining after shutdown began, a
// validation error for malformed specs). Routing happens before admission
// and its load charges are never rolled back, so rejected requests still
// steer future traffic away from the shard that refused them.
func (s *Service) Submit(specs []CloudletSpec) ([]int, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("service: empty submission")
	}
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("service: cloudlet %d: %w", i, err)
		}
	}
	if !s.accepting.Load() {
		return nil, ErrDraining
	}

	target := make([]int, len(specs))
	counts := make([]int, len(s.shards))
	for i, spec := range specs {
		target[i] = s.disp.route(spec.Length)
		counts[target[i]]++
	}
	for _, n := range counts {
		if n > s.cfg.QueueCap {
			return nil, ErrTooLarge
		}
	}

	// All-or-nothing across shards: acquire each target shard's slots in
	// ascending shard order and roll the acquisitions back if any shard is
	// full, so a multi-spec request never half-lands even when it spans
	// shards. Rejections are charged to every shard the request targeted.
	acquired := make([]int, 0, len(s.shards))
	for idx, n := range counts {
		if n == 0 {
			continue
		}
		if !s.shards[idx].adm.tryAcquire(n) {
			for _, a := range acquired {
				s.shards[a].adm.release(counts[a])
			}
			for j, m := range counts {
				if m > 0 {
					s.shards[j].prom.rejected.Add(uint64(m))
				}
			}
			return nil, ErrQueueFull
		}
		acquired = append(acquired, idx)
	}

	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if !s.accepting.Load() { // drain won the race after our acquire
		for _, a := range acquired {
			s.shards[a].adm.release(counts[a])
		}
		return nil, ErrDraining
	}
	ids := make([]int, len(specs))
	units := make([][]*submission, len(s.shards))
	for i, spec := range specs {
		id := int(s.nextID.Add(1))
		ids[i] = id
		pes := spec.PEs
		if pes == 0 {
			pes = 1
		}
		c := cloud.NewCloudlet(id, spec.Length, pes, spec.FileSize, spec.OutputSize)
		s.stat.add(id, target[i])
		units[target[i]] = append(units[target[i]], &submission{cloudlet: c, deadline: spec.Deadline})
	}
	// Each shard's share of the request travels as one unit, so the shard
	// keeps it in one batch whenever it fits.
	for idx, unit := range units {
		if len(unit) == 0 {
			continue
		}
		sh := s.shards[idx]
		sh.pending <- unit
		sh.prom.submitted.Add(uint64(len(unit)))
	}
	return ids, nil
}

// Drain stops admission, lets every shard map and execute what is queued,
// waits for every in-flight batch to finish executing, and returns. It is the SIGTERM path: after Drain
// returns nil, every accepted cloudlet has either finished or been marked
// failed. ctx bounds the wait. Drain is idempotent; concurrent calls all
// wait for the same shutdown.
func (s *Service) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		s.accepting.Store(false)
		// Wait out in-flight Submits, then close every intake.
		s.closeMu.Lock()
		for _, sh := range s.shards {
			close(sh.pending)
		}
		s.closeMu.Unlock()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}
