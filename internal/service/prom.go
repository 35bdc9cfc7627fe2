package service

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bioschedsim/internal/metrics"
)

// counter is a monotonically increasing uint64 metric.
type counter struct{ v atomic.Uint64 }

func (c *counter) Add(n uint64) { c.v.Add(n) }
func (c *counter) Inc()         { c.v.Add(1) }
func (c *counter) Load() uint64 { return c.v.Load() }

// gauge is a float64 metric that moves both ways.
type gauge struct{ bits atomic.Uint64 }

func (g *gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }
func (g *gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Shared bucket layouts: every shard uses the same layout so per-shard
// histograms merge bucket-for-bucket into the fleet-wide series.
var (
	batchSizeBuckets = metrics.ExpBuckets(1, 2, 13)    // 1 → 4096 cloudlets
	schedSecsBuckets = metrics.ExpBuckets(1e-5, 4, 12) // 10µs → ~2.7min
)

// shardMetrics is one shard's slice of the observability surface. Every
// distribution and counter is recorded here, shard-locally and without
// cross-shard contention; the merged fleet-wide view is computed at scrape
// time by promMetrics.
type shardMetrics struct {
	submitted counter // accepted cloudlets routed to this shard
	rejected  counter // cloudlets this shard was due when a request was refused
	finished  counter // cloudlets executed to completion
	failed    counter // cloudlets whose batch failed to map
	batches   counter // batches mapped

	queueDepth func() float64 // live admission-queue occupancy
	inflight   atomic.Int64   // batches currently mapping/executing

	batchSize *metrics.Histogram
	schedSecs *metrics.Histogram // wall-clock scheduling time per batch

	mu  sync.Mutex
	run metrics.RunStats // cumulative Eq. 12/13 aggregate
}

func newShardMetrics(queueDepth func() float64) *shardMetrics {
	return &shardMetrics{
		queueDepth: queueDepth,
		batchSize:  metrics.NewHistogram(batchSizeBuckets),
		schedSecs:  metrics.NewHistogram(schedSecsBuckets),
	}
}

// runStats returns the shard's cumulative run aggregate.
func (m *shardMetrics) runStats() metrics.RunStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.run
}

// promMetrics is the daemon's observability surface: per-shard metric sets
// plus shared last-batch gauges, rendered in Prometheus text exposition
// format by WritePrometheus. Fleet-wide series keep their historical
// (unsharded) names and are produced by a deterministic merge — counters
// sum, histograms merge bucket-wise, and the cumulative Eq. 12/13 figures
// come from folding per-shard RunStats in ascending shard order.
type promMetrics struct {
	shards    []*shardMetrics
	scheduler string // the daemon's one mapping algorithm, the histogram's label

	lastSimTime   gauge // Eq. 12 of the last executed batch, simulated seconds
	lastImbalance gauge // Eq. 13 of the last executed batch
}

func newPromMetrics(shards []*shard, scheduler string) *promMetrics {
	p := &promMetrics{shards: make([]*shardMetrics, len(shards)), scheduler: scheduler}
	for i, sh := range shards {
		p.shards[i] = sh.prom
	}
	return p
}

// observeBatch records one executed batch's figures on its shard and the
// shared last-batch gauges: the batch size, the scheduler's mapping time,
// and Eq. 12/13 over the batch's finished cloudlets.
func (p *promMetrics) observeBatch(sm *shardMetrics, schedTime time.Duration, stats metrics.RunStats) {
	sm.batches.Inc()
	sm.batchSize.Observe(float64(stats.Count))
	sm.schedSecs.Observe(schedTime.Seconds())
	sm.mu.Lock()
	sm.run = sm.run.Merge(stats)
	sm.mu.Unlock()
	p.lastSimTime.Set(stats.SimTime())
	p.lastImbalance.Set(stats.Imbalance())
}

// sum folds a counter accessor over every shard.
func (p *promMetrics) sum(f func(*shardMetrics) uint64) uint64 {
	var total uint64
	for _, sm := range p.shards {
		total += f(sm)
	}
	return total
}

func (p *promMetrics) submittedTotal() uint64 {
	return p.sum(func(m *shardMetrics) uint64 { return m.submitted.Load() })
}
func (p *promMetrics) rejectedTotal() uint64 {
	return p.sum(func(m *shardMetrics) uint64 { return m.rejected.Load() })
}
func (p *promMetrics) finishedTotal() uint64 {
	return p.sum(func(m *shardMetrics) uint64 { return m.finished.Load() })
}
func (p *promMetrics) failedTotal() uint64 {
	return p.sum(func(m *shardMetrics) uint64 { return m.failed.Load() })
}
func (p *promMetrics) batchesTotal() uint64 {
	return p.sum(func(m *shardMetrics) uint64 { return m.batches.Load() })
}

func (p *promMetrics) queueDepthTotal() float64 {
	var total float64
	for _, sm := range p.shards {
		total += sm.queueDepth()
	}
	return total
}

func (p *promMetrics) inflightTotal() int64 {
	var total int64
	for _, sm := range p.shards {
		total += sm.inflight.Load()
	}
	return total
}

// runStatsMerged folds every shard's cumulative aggregate in ascending
// shard order — the deterministic cross-shard metric reduction.
func (p *promMetrics) runStatsMerged() metrics.RunStats {
	var merged metrics.RunStats
	for _, sm := range p.shards {
		merged = merged.Merge(sm.runStats())
	}
	return merged
}

// merged folds one histogram per shard, picked by f, bucket-wise into the
// fleet-wide histogram.
func (p *promMetrics) merged(bounds []float64, f func(*shardMetrics) *metrics.Histogram) *metrics.Histogram {
	merged := metrics.NewHistogram(bounds)
	for _, sm := range p.shards {
		merged.Merge(f(sm))
	}
	return merged
}

func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func writeHistogram(w io.Writer, name, labels string, h *metrics.Histogram) {
	snap := h.Snapshot()
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, b := range snap.Bounds {
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatBound(b), snap.Cumulative[i])
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, snap.Count)
	if labels != "" {
		fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, snap.Sum, name, labels, snap.Count)
	} else {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, snap.Sum, name, snap.Count)
	}
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

// writeShardCounter renders one per-shard counter family.
func (p *promMetrics) writeShardCounter(w io.Writer, name, help string, f func(*shardMetrics) uint64) {
	writeHeader(w, name, help, "counter")
	for i, sm := range p.shards {
		fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, i, f(sm))
	}
}

// WritePrometheus renders every series in text exposition format: the
// merged fleet-wide series first, under the names an unsharded daemon
// exported, then the per-shard breakdown labelled shard="i".
func (p *promMetrics) WritePrometheus(w io.Writer) {
	writeHeader(w, "schedd_submitted_total", "Cloudlets accepted into the queue.", "counter")
	fmt.Fprintf(w, "schedd_submitted_total %d\n", p.submittedTotal())
	writeHeader(w, "schedd_rejected_total", "Cloudlets rejected with queue-full backpressure.", "counter")
	fmt.Fprintf(w, "schedd_rejected_total %d\n", p.rejectedTotal())
	writeHeader(w, "schedd_finished_total", "Cloudlets executed to completion.", "counter")
	fmt.Fprintf(w, "schedd_finished_total %d\n", p.finishedTotal())
	writeHeader(w, "schedd_failed_total", "Cloudlets whose batch failed to map.", "counter")
	fmt.Fprintf(w, "schedd_failed_total %d\n", p.failedTotal())
	writeHeader(w, "schedd_batches_total", "Batches mapped by the shards.", "counter")
	fmt.Fprintf(w, "schedd_batches_total %d\n", p.batchesTotal())

	writeHeader(w, "schedd_queue_depth", "Cloudlets currently held in the admission queues.", "gauge")
	fmt.Fprintf(w, "schedd_queue_depth %g\n", p.queueDepthTotal())
	writeHeader(w, "schedd_inflight_batches", "Batches currently being mapped or executed.", "gauge")
	fmt.Fprintf(w, "schedd_inflight_batches %d\n", p.inflightTotal())
	writeHeader(w, "schedd_shards", "Shard pipelines the daemon runs.", "gauge")
	fmt.Fprintf(w, "schedd_shards %d\n", len(p.shards))

	writeHeader(w, "schedd_batch_sim_time_seconds", "Eq. 12 simulation time of the last executed batch.", "gauge")
	fmt.Fprintf(w, "schedd_batch_sim_time_seconds %g\n", p.lastSimTime.Load())
	writeHeader(w, "schedd_batch_imbalance", "Eq. 13 degree of imbalance of the last executed batch.", "gauge")
	fmt.Fprintf(w, "schedd_batch_imbalance %g\n", p.lastImbalance.Load())

	run := p.runStatsMerged()
	writeHeader(w, "schedd_run_sim_time_seconds", "Eq. 12 over every finished cloudlet, merged across shards.", "gauge")
	fmt.Fprintf(w, "schedd_run_sim_time_seconds %g\n", float64(run.SimTime()))
	writeHeader(w, "schedd_run_imbalance", "Eq. 13 over every finished cloudlet, merged across shards.", "gauge")
	fmt.Fprintf(w, "schedd_run_imbalance %g\n", run.Imbalance())

	writeHeader(w, "schedd_batch_size", "Cloudlets per batch.", "histogram")
	writeHistogram(w, "schedd_batch_size", "",
		p.merged(batchSizeBuckets, func(m *shardMetrics) *metrics.Histogram { return m.batchSize }))

	writeHeader(w, "schedd_scheduling_seconds", "Wall-clock scheduling time per batch, by scheduler.", "histogram")
	writeHistogram(w, "schedd_scheduling_seconds", fmt.Sprintf("scheduler=%q", p.scheduler),
		p.merged(schedSecsBuckets, func(m *shardMetrics) *metrics.Histogram { return m.schedSecs }))

	p.writeShardCounter(w, "schedd_shard_submitted_total", "Cloudlets accepted by each shard.",
		func(m *shardMetrics) uint64 { return m.submitted.Load() })
	p.writeShardCounter(w, "schedd_shard_rejected_total", "Cloudlets each shard was due when a request was refused.",
		func(m *shardMetrics) uint64 { return m.rejected.Load() })
	p.writeShardCounter(w, "schedd_shard_finished_total", "Cloudlets finished by each shard.",
		func(m *shardMetrics) uint64 { return m.finished.Load() })
	p.writeShardCounter(w, "schedd_shard_failed_total", "Cloudlets failed by each shard.",
		func(m *shardMetrics) uint64 { return m.failed.Load() })
	p.writeShardCounter(w, "schedd_shard_batches_total", "Batches mapped by each shard.",
		func(m *shardMetrics) uint64 { return m.batches.Load() })

	writeHeader(w, "schedd_shard_queue_depth", "Cloudlets held in each shard's admission queue.", "gauge")
	for i, sm := range p.shards {
		fmt.Fprintf(w, "schedd_shard_queue_depth{shard=\"%d\"} %g\n", i, sm.queueDepth())
	}
	writeHeader(w, "schedd_shard_inflight_batches", "Batches each shard is mapping or executing.", "gauge")
	for i, sm := range p.shards {
		fmt.Fprintf(w, "schedd_shard_inflight_batches{shard=\"%d\"} %d\n", i, sm.inflight.Load())
	}
}
