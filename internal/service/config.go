// Package service turns the repository's schedulers into a long-running
// scheduling daemon: an HTTP/JSON front end accepts cloudlet submissions, a
// deterministic load-aware dispatcher routes each cloudlet to one of N
// shards, and every shard runs the full pipeline on one goroutine — it
// takes whatever cloudlets are queued as a batch, maps the batch with a
// registered scheduler (batch algorithms from internal/sched — ACO, HBO,
// RBS, GA, PSO, base, … — or per-arrival policies from internal/online),
// executes the placements on a persistent online.Session whose simulated
// clock advances across batches, and repeats. Shards own disjoint
// contiguous VM ranges, so their executions proceed concurrently without
// sharing mutable state; fleet-wide metrics are produced by a deterministic
// merge over the per-shard figures.
//
// The shape is the one production serving systems share: bounded per-shard
// admission (429 + Retry-After under pressure), work-conserving batch
// coalescing (a free shard maps whatever is queued, up to N items), graceful
// drain on shutdown, and a Prometheus observability surface with both
// merged and per-shard series. See DESIGN.md §7 and §11.
package service

import (
	"fmt"
	"time"

	"bioschedsim/internal/online"
	"bioschedsim/internal/sched"
)

// Defaults for Config zero values.
const (
	DefaultBatchSize = 64
	DefaultQueueCap  = 4096
	DefaultShards    = 1
)

// statusRetention caps the number of finished cloudlet records kept for
// /v1/status lookups; the oldest finished records are evicted first.
// Queued and in-flight records are never evicted.
const statusRetention = 1 << 20

// DefaultFlushInterval no longer configures the daemon: a shard maps a
// partial batch as soon as it is free, so no batch waits on a timer. It is
// kept as a latency scale for clients, whose SLO limits are set against it.
const DefaultFlushInterval = 50 * time.Millisecond

// Config sizes the daemon. The zero value of every field selects the
// package default, so Config{Scheduler: "aco"} is a working configuration.
type Config struct {
	// Scheduler names the mapping algorithm: either a batch scheduler from
	// the internal/sched registry ("aco", "hbo", "rbs", "ga", "pso",
	// "base", …) or a per-arrival policy from internal/online
	// ("online-eft", "online-aco", …). Required.
	Scheduler string

	// BatchSize caps a batch. A shard that is free takes every cloudlet
	// already queued for it, up to this many, as its next batch.
	BatchSize int

	// QueueCap bounds each shard's admission queue. Submissions beyond a
	// target shard's bound are rejected with ErrQueueFull (HTTP 429), or
	// with ErrTooLarge (HTTP 413) when the request alone exceeds it, instead
	// of queueing unboundedly or spilling onto other shards — backpressure is
	// a per-shard signal, so a hot shard refuses work while the rest of the
	// fleet keeps accepting.
	QueueCap int

	// Shards partitions the VM fleet into this many contiguous, disjoint
	// ranges, each driven by its own goroutine, engine, broker, and
	// admission gate. Cloudlets are routed to shards by a deterministic load-aware
	// dispatcher (least outstanding MI, seeded-hash tiebreak). At the default
	// of 1 the daemon behaves exactly as an unsharded build: same seeds,
	// same placements, same metric series.
	Shards int

	// Seed derives every random stream (each shard's scheduler or online
	// policy randomness, the dispatcher's tiebreak), keeping runs
	// reproducible. Shard i's stream is seeded Seed + i·2³², so shard 0
	// draws the exact stream an unsharded daemon would.
	Seed int64
}

// withDefaults returns cfg with zero fields replaced by package defaults.
// Negative values are left for Validate to reject — only the documented
// zero-value convention selects a default.
func (cfg Config) withDefaults() Config {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	return cfg
}

// Validate is the single error path for daemon configuration: every rule —
// scheduler registration and shard bounds against the fleet — is checked
// here, so New, the CLI, and tests all fail with the same diagnostics.
// fleetSize is the number of VMs the daemon will
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
	return nil
}
