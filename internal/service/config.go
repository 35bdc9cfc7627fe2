// Package service turns the repository's schedulers into a long-running
// scheduling daemon: an HTTP/JSON front end accepts cloudlet submissions, a
// deterministic load-aware dispatcher routes each cloudlet to one of N
// shards, and every shard runs the full pipeline independently — a
// work-conserving batcher coalesces its cloudlets, a worker pool maps each
// flushed batch with a registered scheduler (batch algorithms from
// internal/sched — ACO, HBO, RBS, GA, PSO, base, … — or per-arrival
// policies from internal/online), and a persistent online.Session executes
// placements on the shard's broker, whose simulated clock advances across
// batches. Shards own disjoint contiguous VM ranges, so their executions
// proceed concurrently without sharing mutable state; fleet-wide metrics are
// produced by a deterministic merge over the per-shard figures.
//
// The shape is the one production serving systems share: bounded per-shard
// admission (429 + Retry-After under pressure), work-conserving batch
// coalescing (hand off at once while idle; otherwise on N items or T
// elapsed, whichever first), concurrent mapping with serialized
// per-shard state mutation, graceful drain on shutdown, and a Prometheus
// observability surface with both merged and per-shard series. See
// DESIGN.md §7 and §11.
package service

import (
	"fmt"
	"runtime"
	"time"

	"bioschedsim/internal/online"
	"bioschedsim/internal/sched"
)

// Defaults for Config zero values.
const (
	DefaultBatchSize       = 64
	DefaultFlushInterval   = 50 * time.Millisecond
	DefaultQueueCap        = 4096
	DefaultWorkers         = 2
	DefaultSchedWorkers    = 1
	DefaultShards          = 1
	DefaultStatusRetention = 1 << 20
)

// Config sizes the daemon. The zero value of every field selects the
// package default, so Config{Scheduler: "aco"} is a working configuration.
type Config struct {
	// Scheduler names the mapping algorithm: either a batch scheduler from
	// the internal/sched registry ("aco", "hbo", "rbs", "ga", "pso",
	// "base", …) or a per-arrival policy from internal/online
	// ("online-eft", "online-aco", …). Required.
	Scheduler string

	// BatchSize caps a batch. While none of a shard's batches is mapping,
	// whatever has arrived goes to a mapper at once; while one is mapping,
	// the next batch goes out to a second mapper as soon as it holds this
	// many cloudlets.
	BatchSize int

	// FlushInterval is how long a partial batch waits for a second mapper
	// while one of its shard's batches is mapping, counted from its first
	// cloudlet. A batch on an idle shard does not wait.
	FlushInterval time.Duration

	// QueueCap bounds each shard's admission queue. Submissions beyond a
	// target shard's bound are rejected with ErrQueueFull (HTTP 429), or
	// with ErrTooLarge (HTTP 413) when the request alone exceeds it, instead
	// of queueing unboundedly or spilling onto other shards — backpressure is
	// a per-shard signal, so a hot shard refuses work while the rest of the
	// fleet keeps accepting.
	QueueCap int

	// Workers sizes each shard's batch-mapping worker pool. Mapping runs
	// concurrently across a shard's batches; execution on the shard's broker
	// is serialized, while distinct shards execute concurrently. Online
	// policies are stateful, so each shard runs one effective mapper
	// regardless of this setting.
	Workers int

	// SchedWorkers bounds the internal kernel pool of each mapper for
	// schedulers that implement sched.WorkerTunable (aco, hbo, rbs, ga).
	// The default is 1 (serial kernels): the daemon already runs
	// Shards·Workers mappers concurrently, so widening each mapper's pool
	// oversubscribes the host unless the other knobs are lowered to match —
	// Validate rejects combinations that exceed the host's processor count.
	// Assignments are bit-identical at every setting; only latency moves.
	SchedWorkers int

	// Shards partitions the VM fleet into this many contiguous, disjoint
	// ranges, each driven by its own engine, broker, batcher, and admission
	// gate. Cloudlets are routed to shards by a deterministic load-aware
	// dispatcher (least outstanding MI, seeded-hash tiebreak). At the default
	// of 1 the daemon behaves exactly as an unsharded build: same seeds,
	// same placements, same metric series.
	Shards int

	// Seed derives every random stream (per-worker scheduler randomness,
	// online policy randomness, the dispatcher's tiebreak), keeping runs
	// reproducible. Shard i's streams are offset by i·2³², so shard 0 draws
	// the exact streams an unsharded daemon would.
	Seed int64

	// StatusRetention caps the number of finished cloudlet records kept for
	// /v1/status lookups; the oldest finished records are evicted first.
	// Queued and in-flight records are never evicted.
	StatusRetention int
}

// withDefaults returns cfg with zero fields replaced by package defaults.
// Negative values are left for Validate to reject — only the documented
// zero-value convention selects a default.
func (cfg Config) withDefaults() Config {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = DefaultFlushInterval
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.SchedWorkers <= 0 {
		cfg.SchedWorkers = DefaultSchedWorkers
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.StatusRetention <= 0 {
		cfg.StatusRetention = DefaultStatusRetention
	}
	return cfg
}

// Validate is the single error path for daemon configuration: every rule —
// scheduler registration, shard bounds against the fleet, and worker
// oversubscription — is checked here, so New, the CLI, and tests all fail
// with the same diagnostics. fleetSize is the number of VMs the daemon will
// schedule onto. Call after withDefaults (as New does) or with every field
// explicitly set.
func (cfg Config) Validate(fleetSize int) error {
	if cfg.Scheduler == "" {
		return fmt.Errorf("service: Config.Scheduler is required (batch: %v; online: %v)",
			sched.Names(), online.PolicyNames())
	}
	if !online.IsPolicy(cfg.Scheduler) {
		if _, err := sched.New(cfg.Scheduler); err != nil {
			return fmt.Errorf("service: %w", err)
		}
	}
	if cfg.Shards < 1 {
		return fmt.Errorf("service: Shards must be at least 1, got %d", cfg.Shards)
	}
	if fleetSize > 0 && cfg.Shards > fleetSize {
		return fmt.Errorf("service: %d shards over a %d-VM fleet; every shard needs at least one VM", cfg.Shards, fleetSize)
	}
	if procs := runtime.GOMAXPROCS(0); cfg.SchedWorkers > 1 && cfg.Shards*cfg.Workers*cfg.SchedWorkers > procs {
		return fmt.Errorf("service: Shards·Workers·SchedWorkers = %d·%d·%d oversubscribes GOMAXPROCS=%d; lower one of the knobs",
			cfg.Shards, cfg.Workers, cfg.SchedWorkers, procs)
	}
	return nil
}
