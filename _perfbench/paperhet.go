package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/workload"

	_ "bioschedsim/internal/aco" // registers "aco"
	_ "bioschedsim/internal/hbo" // registers "hbo"
	_ "bioschedsim/internal/rbs" // registers "rbs"
)

// paperSchedulers are the paper's three algorithms and its base mapper.
var paperSchedulers = []string{"aco", "base", "hbo", "rbs"}

// paperConfig sizes the Fig. 6 heterogeneous sweep.
type paperConfig struct {
	vmCounts  []int
	cloudlets int
	dcs       int
	minSweeps int // the batch-time p90 needs ≥100 batches beyond which ten remain
}

// paperScale is the paper's Fig. 6 sweep: 50–950 VMs in steps of 100,
// 5 000 cloudlets over 4 datacenters.
func paperScale() paperConfig {
	pc := paperConfig{cloudlets: 5000, dcs: 4, minSweeps: 3}
	for n := 50; n <= 950; n += 100 {
		pc.vmCounts = append(pc.vmCounts, n)
	}
	return pc
}

// batch is one scheduled and executed scenario of the sweep.
type batch struct {
	seed      uint64
	vms       int
	scheduler string
	wall      time.Duration
	cloudlets int
	events    uint64
	digest    uint64
}

func (b batch) key() string { return fmt.Sprintf("seed=%d vms=%d %s", b.seed, b.vms, b.scheduler) }

// paperPlant, when set by a test, corrupts a batch's outputs before they
// are checked.
var paperPlant func(res *cloud.Result, rep *metrics.Report)

// runBatch is the offline pipeline of `cloudsched run`: generate the
// scenario, schedule it, validate the mapping, execute it, collect Eq.
// 12/13. It fails if any output check fails.
func runBatch(tr *tracer, id int64, name string, n int, pc paperConfig, seed uint64) (batch, error) {
	b := batch{seed: seed, vms: n, scheduler: name}
	start := time.Now()
	root := tr.begin("batch", id, -1)

	sp := tr.begin("workload.generate", id, root)
	scn, err := workload.Heterogeneous(n, pc.cloudlets, pc.dcs, seed)
	tr.end(sp)
	if err != nil {
		return b, err
	}
	s, err := sched.New(name)
	if err != nil {
		return b, err
	}
	ctx := scn.Context()
	sp = tr.begin("sched."+name+".schedule", id, root)
	t0 := time.Now()
	asg, err := s.Schedule(ctx)
	schedTime := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return b, err
	}
	sp = tr.begin("sched.validate", id, root)
	err = sched.ValidateAssignments(ctx, asg)
	tr.end(sp)
	if err != nil {
		return b, fmt.Errorf("%s: %w", b.key(), err)
	}
	cls, vms := sched.Split(asg)
	sp = tr.begin("cloud.execute", id, root)
	res, err := cloud.Execute(scn.Env, cloud.TimeSharedFactory, cls, vms)
	tr.end(sp)
	if err != nil {
		return b, err
	}
	sp = tr.begin("metrics.collect", id, root)
	rep := metrics.Collect(s.Name(), res.Finished, scn.Env.VMs, schedTime)
	tr.end(sp)
	tr.end(root)
	b.wall = time.Since(start)

	if paperPlant != nil {
		paperPlant(res, &rep)
	}
	if len(res.Finished) != len(scn.Cloudlets) {
		return b, fmt.Errorf("%s: %d of %d cloudlets finished", b.key(), len(res.Finished), len(scn.Cloudlets))
	}
	if rep.SimTime != res.SimulationTime() {
		return b, fmt.Errorf("%s: report Eq. 12 %v differs from the run's %v", b.key(), rep.SimTime, res.SimulationTime())
	}
	b.cloudlets, b.events = len(res.Finished), res.EngineEvents
	b.digest = placementDigest(asg, rep)
	return b, nil
}

// placementDigest hashes every placement plus Eq. 12 and Eq. 13.
func placementDigest(asg []sched.Assignment, rep metrics.Report) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 16)
	for _, a := range asg {
		buf = appendU64(buf[:0], uint64(a.Cloudlet.ID))
		buf = appendU64(buf, uint64(a.VM.ID))
		h.Write(buf)
	}
	buf = appendU64(buf[:0], math.Float64bits(float64(rep.SimTime)))
	buf = appendU64(buf, math.Float64bits(rep.Imbalance))
	h.Write(buf)
	return h.Sum64()
}

func appendU64(b []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

// sweep runs every (VM count, scheduler) batch of one seed.
func sweep(tr *tracer, nextID *int64, pc paperConfig, seed uint64) ([]batch, error) {
	var out []batch
	for _, n := range pc.vmCounts {
		for _, name := range paperSchedulers {
			*nextID++
			runtime.GC() // start each batch from the same heap, outside its time
			b, err := runBatch(tr, *nextID, name, n, pc, seed)
			if err != nil {
				return out, err
			}
			out = append(out, b)
		}
	}
	return out, nil
}

// digestBook checks that every (seed, VM count, scheduler) hashes the same
// each time it runs.
type digestBook map[string]uint64

func (d digestBook) check(bs []batch) error {
	for _, b := range bs {
		if prev, ok := d[b.key()]; ok && prev != b.digest {
			return fmt.Errorf("%s: digest %016x differs from an earlier run's %016x", b.key(), b.digest, prev)
		}
		d[b.key()] = b.digest
	}
	return nil
}

func runPaperHet(cfg config) (*outcome, error) {
	return paperHet(cfg, paperScale())
}

// paperHet runs the closed-loop sweep: one batch at a time, sweeps at seeds
// seed, seed+1, … until the measuring time is spent (never fewer than
// pc.minSweeps), then re-runs the first sweep to check its digests. A
// traced run alternates untraced and traced sweeps of the one seed instead.
func paperHet(cfg config, pc paperConfig) (*outcome, error) {
	out := &outcome{}
	var id int64
	book := digestBook{}

	// Set-up: one warm-up batch per scheduler at the smallest fleet, so
	// code, heap and kernel pools are warm before timing.
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		for _, name := range paperSchedulers {
			id++
			out.attempted++
			if _, err := runBatch(nil, id, name, pc.vmCounts[0], pc, cfg.seed); err != nil {
				return out, fmt.Errorf("set-up: %w", err)
			}
		}
		out.setup = append(out.setup, time.Since(t0))
	}

	if cfg.trace {
		return out, paperTraced(cfg, pc, out, book, &id)
	}

	var all []batch
	var rates []float64 // cloudlets per second of each sweep
	start := time.Now()
	for s := 0; s < pc.minSweeps || time.Since(start) < cfg.seconds; s++ {
		bs, err := sweep(nil, &id, pc, cfg.seed+uint64(s))
		out.attempted += int64(len(bs))
		all = append(all, bs...)
		if err != nil {
			return out, err
		}
		if err := book.check(bs); err != nil {
			return out, err
		}
		var cloudlets int
		var wall time.Duration
		for _, b := range bs {
			cloudlets += b.cloudlets
			wall += b.wall
		}
		rates = append(rates, float64(cloudlets)/wall.Seconds())
	}
	bs, err := sweep(nil, &id, pc, cfg.seed)
	if err == nil {
		err = book.check(bs)
	}
	if err != nil {
		return out, fmt.Errorf("repeat of seed %d: %w", cfg.seed, err)
	}

	for _, b := range all {
		out.opMs = append(out.opMs, ms(b.wall))
	}
	out.cloudletsPerSec = median(rates)
	out.add("sweeps", float64(len(rates)), "count")
	out.add("batches", float64(len(all)), "count")
	out.add("batch_ms_p50", quantile(out.opMs, 0.5), "ms")
	if _, _, ok := tailQuantile(out.opMs); !ok {
		return out, fmt.Errorf("%d batches: the p90 needs at least 100", len(all))
	}
	out.add("batch_ms_p90", quantile(out.opMs, 0.9), "ms")
	return out, nil
}

// paperTraced alternates an untraced and a traced sweep of cfg.seed, so
// both see the same inputs: their digests must agree, and the wall-time
// difference is the tracing overhead.
func paperTraced(cfg config, pc paperConfig, out *outcome, book digestBook, id *int64) error {
	tr := newTracer()
	var plain, traced time.Duration
	var sweeps int
	var events uint64
	start := time.Now()
	for sweeps == 0 || time.Since(start) < cfg.seconds {
		for _, t := range []*tracer{nil, tr} {
			bs, err := sweep(t, id, pc, cfg.seed)
			out.attempted += int64(len(bs))
			if err == nil {
				err = book.check(bs)
			}
			if err != nil {
				return err
			}
			var wall time.Duration
			events = 0
			for _, b := range bs {
				wall += b.wall
				events += b.events
			}
			if t == nil {
				plain += wall
			} else {
				traced += wall
			}
		}
		sweeps++
	}
	spans := tr.snapshot()
	per := float64(sweeps)
	l := map[string]float64{}
	schedMs := map[string][]float64{}
	for _, s := range spans {
		switch s.Name {
		case "workload.generate", "sched.validate", "cloud.execute", "metrics.collect":
			l[s.Name+"_ms"] += ms(s.dur()) / per
		case "batch":
		default:
			schedMs[s.Name] = append(schedMs[s.Name], ms(s.dur()))
		}
	}
	for _, name := range paperSchedulers {
		l["sched."+name+".schedule_ms_p50"] = median(schedMs["sched."+name+".schedule"])
	}
	l["cloud.engine_events"] = float64(events)
	l["trace.coverage_ratio"] = coverage(spans)
	l["trace.overhead_ratio"] = traced.Seconds()/plain.Seconds() - 1
	out.layers = l
	out.add("sweeps_per_side", per, "count")
	addSelfTimes(out, spans, per)
	return writeSpans(spanPath(cfg, "paper-het"), spans)
}

func spanPath(cfg config, workload string) string {
	return filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, cfg.seed))
}
