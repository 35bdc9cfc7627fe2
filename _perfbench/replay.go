package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/online"
	"bioschedsim/internal/tracecol"
	"bioschedsim/internal/workload"
)

// replayConfig sizes the `cloudsched replay` workload.
type replayConfig struct {
	rows, vms, dcs int
}

// replayPolicy is `cloudsched replay`'s default per-arrival policy.
const replayPolicy = "online-eft"

// replayScale is a 1 M-row trace with gentrace's default MMPP arrivals
// replayed with online-eft on 50 heterogeneous VMs over 4 datacenters.
func replayScale() replayConfig {
	return replayConfig{rows: 1_000_000, vms: 50, dcs: 4}
}

// replayPlant, when set by a test, corrupts a replay's outputs before they
// are checked.
var replayPlant func(entries *[]workload.TraceEntry, res *online.Result)

// timedPolicy wraps an online policy to count and time its Place calls.
type timedPolicy struct {
	inner online.Scheduler
	calls int64
	spent time.Duration
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Place(c *cloud.Cloudlet, vms []*cloud.VM) (*cloud.VM, error) {
	t0 := time.Now()
	vm, err := p.inner.Place(c, vms)
	p.spent += time.Since(t0)
	p.calls++
	return vm, err
}

// learningPolicy is a timedPolicy that forwards completion feedback, for
// policies that learn from it; online.Run only reports completions to
// policies implementing online.Feedback, so the wrapper must implement it
// exactly when the policy does.
type learningPolicy struct {
	*timedPolicy
	fb online.Feedback
}

func (p learningPolicy) Completed(c *cloud.Cloudlet, execSeconds float64) {
	p.fb.Completed(c, execSeconds)
}

// timePolicy wraps inner and returns the wrapper plus its counters.
func timePolicy(inner online.Scheduler) (online.Scheduler, *timedPolicy) {
	t := &timedPolicy{inner: inner}
	if fb, ok := inner.(online.Feedback); ok {
		return learningPolicy{t, fb}, t
	}
	return t, t
}

// entriesDigest hashes every field a trace row carries.
func entriesDigest(entries []workload.TraceEntry) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 56)
	for _, e := range entries {
		c := e.Cloudlet
		buf = appendU64(buf[:0], math.Float64bits(e.Arrival))
		buf = appendU64(buf, uint64(c.ID))
		buf = appendU64(buf, math.Float64bits(c.Length))
		buf = appendU64(buf, uint64(c.PEs))
		buf = appendU64(buf, math.Float64bits(c.FileSize))
		buf = appendU64(buf, math.Float64bits(c.OutputSize))
		buf = appendU64(buf, math.Float64bits(float64(c.Deadline)))
		h.Write(buf)
	}
	return h.Sum64()
}

// resultDigest hashes every cloudlet's placement and finish time plus the
// run's Eq. 12/13 and cost.
func resultDigest(res *online.Result) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 24)
	for _, c := range res.Finished {
		buf = appendU64(buf[:0], uint64(c.ID))
		buf = appendU64(buf, uint64(c.VM.ID))
		buf = appendU64(buf, math.Float64bits(float64(c.FinishTime)))
		h.Write(buf)
	}
	buf = appendU64(buf[:0], math.Float64bits(float64(res.SimTime)))
	buf = appendU64(buf, math.Float64bits(res.Imbalance))
	buf = appendU64(buf, math.Float64bits(res.Cost))
	h.Write(buf)
	return h.Sum64()
}

// writeTrace generates the seed's trace the way `cloudsched gentrace
// -process mmpp -columnar` does and writes it to path. It returns the
// digest of the generated rows.
func writeTrace(path string, rc replayConfig, seed uint64) (uint64, error) {
	proc, err := workload.NewMMPP(2, 16, 60, 10)
	if err != nil {
		return 0, err
	}
	entries, err := workload.SyntheticTraceFrom(workload.HeterogeneousCloudletSpec(), rc.rows, proc, seed)
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	if err := tracecol.Write(w, entries, tracecol.WriteOptions{}); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return entriesDigest(entries), nil
}

// replayRun is one timed replay's figures.
type replayRun struct {
	wall       time.Duration
	events     uint64
	placeCalls int64
	placeTime  time.Duration
	digest     uint64
}

// replayOnce is `cloudsched replay`: read the trace, split it, build the
// fleet, run the online policy, compute the SLA share. It fails unless
// every row was read intact and every cloudlet finished.
func replayOnce(tr *tracer, id int64, path string, rc replayConfig, seed, want uint64) (replayRun, error) {
	var r replayRun
	start := time.Now()
	root := tr.begin("replay", id, -1)

	sp := tr.begin("tracecol.ingest", id, root)
	entries, err := tracecol.ReadFileAuto(path, 0)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.begin("workload.generate", id, root)
	cls, arrivals := workload.Split(entries)
	fleet := workload.GenerateVMs(workload.HeterogeneousVMSpec(), rc.vms, seed)
	env, err := workload.GenerateEnvironment(workload.HeterogeneousDatacenterSpec(rc.dcs), fleet, seed)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	policy, err := online.NewPolicy(replayPolicy, rand.New(rand.NewSource(int64(seed))))
	if err != nil {
		return r, err
	}
	var timed *timedPolicy
	if tr != nil {
		policy, timed = timePolicy(policy)
	}
	sp = tr.begin("online.run", id, root)
	res, err := online.Run(env, policy, cls, arrivals, cloud.TimeSharedFactory)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.begin("metrics.collect", id, root)
	sla := metrics.SLAComplianceRate(res.Finished)
	tr.end(sp)
	tr.end(root)
	r.wall = time.Since(start)

	if replayPlant != nil {
		replayPlant(&entries, res)
	}
	if len(entries) != rc.rows {
		return r, fmt.Errorf("read %d rows, wrote %d", len(entries), rc.rows)
	}
	if got := entriesDigest(entries); got != want {
		return r, fmt.Errorf("rows read hash to %016x, rows written to %016x", got, want)
	}
	if len(res.Finished) != rc.rows {
		return r, fmt.Errorf("%d of %d cloudlets finished", len(res.Finished), rc.rows)
	}
	if math.IsNaN(sla) {
		return r, fmt.Errorf("SLA compliance is NaN")
	}
	r.events, r.digest = res.EngineEvents, resultDigest(res)
	if timed != nil {
		r.placeCalls, r.placeTime = timed.calls, timed.spent
	}
	return r, nil
}

func runReplay(cfg config) (*outcome, error) {
	return replayTrace(cfg, replayScale())
}

// replayTrace writes the seed's trace once, outside set-up and timing, then
// replays it back to back until the measuring time is spent. A traced run
// alternates untraced and traced replays.
func replayTrace(cfg config, rc replayConfig) (*outcome, error) {
	out := &outcome{}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-seed%d.col", cfg.seed))
	want, err := writeTrace(path, rc, cfg.seed)
	if err != nil {
		return out, fmt.Errorf("write trace: %w", err)
	}
	defer os.Remove(path)
	runtime.GC()

	// Set-up: build the fleet and policy and read the file once, so the
	// page cache and heap are warm before timing.
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		fleet := workload.GenerateVMs(workload.HeterogeneousVMSpec(), rc.vms, cfg.seed)
		if _, err := workload.GenerateEnvironment(workload.HeterogeneousDatacenterSpec(rc.dcs), fleet, cfg.seed); err != nil {
			return out, err
		}
		if _, err := online.NewPolicy(replayPolicy, rand.New(rand.NewSource(int64(cfg.seed)))); err != nil {
			return out, err
		}
		if _, err := tracecol.ReadFileAuto(path, 0); err != nil {
			return out, fmt.Errorf("set-up read: %w", err)
		}
		out.setup = append(out.setup, time.Since(t0))
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var plain, traced []replayRun
	var id int64
	digest := uint64(0)
	start := time.Now()
	for len(plain) == 0 || len(traced) == 0 && tr != nil || time.Since(start) < cfg.seconds {
		t := tr
		if len(traced) >= len(plain) {
			t = nil // a traced run alternates, starting untraced
		}
		id++
		out.attempted += int64(rc.rows)
		runtime.GC() // start each replay from the same heap, outside its time
		r, err := replayOnce(t, id, path, rc, cfg.seed, want)
		if err != nil {
			return out, err
		}
		if digest != 0 && r.digest != digest {
			return out, fmt.Errorf("replay %d: result digest %016x differs from the first replay's %016x", id, r.digest, digest)
		}
		digest = r.digest
		if t == nil {
			plain = append(plain, r)
		} else {
			traced = append(traced, r)
		}
	}

	if !cfg.trace {
		for _, r := range plain {
			out.opMs = append(out.opMs, ms(r.wall))
		}
		out.cloudletsPerSec = float64(rc.rows) / (median(out.opMs) / 1e3)
		out.add("replays", float64(len(plain)), "count")
		out.add("replay_ms_p50", median(out.opMs), "ms")
		return out, nil
	}

	spans := tr.snapshot()
	n := float64(len(traced))
	per := func(name string) []float64 {
		var xs []float64
		for _, s := range spans {
			if s.Name == name {
				xs = append(xs, ms(s.dur()))
			}
		}
		return xs
	}
	var plainWall, tracedWall time.Duration
	for _, r := range plain {
		plainWall += r.wall
	}
	for _, r := range traced {
		tracedWall += r.wall
	}
	last := traced[len(traced)-1]
	ingest, run := median(per("tracecol.ingest")), median(per("online.run"))
	out.layers = map[string]float64{
		"workload.generate_ms": median(per("workload.generate")),
		"metrics.collect_ms":   median(per("metrics.collect")),
		"tracecol.ingest_ms":   ingest,
		"tracecol.rows_per_s":  float64(rc.rows) / (ingest / 1e3),
		"online.run_ms":        run,
		"online.engine_events": float64(last.events),
		"online.events_per_s":  float64(last.events) / (run / 1e3),
		"online.place_calls":   float64(last.placeCalls),
		"online.place_us_sum":  us(last.placeTime),
		"trace.coverage_ratio": coverage(spans),
		"trace.overhead_ratio": (tracedWall.Seconds()/n)/(plainWall.Seconds()/float64(len(plain))) - 1,
	}
	out.add("replays_traced", n, "count")
	addSelfTimes(out, spans, n)
	return out, writeSpans(spanPath(cfg, "replay-trace"), spans)
}
