package main

import (
	"fmt"
	"runtime"
	"time"

	"bioschedsim/internal/plan"
)

// planSpec is the `cloudsched plan` spec of the plan-verdict workload:
// MMPP arrivals switching between 200/s and 800/s, exponential 1 000 MI
// cloudlets on single-PE 1 000-MIPS VMs behind a central queue, SLO p99 ≤ 6
// s, fleet searched over [1, 2048]. The calm and burst states last 6 s and
// 1 s on average, so a verdict sees many bursts and its cost depends less
// on its seed's burst pattern.
func planSpec(cloudlets, warmup int, seed uint64) []byte {
	return []byte(fmt.Sprintf(`{
  "name": "perfbench-plan-verdict",
  "workload": {"process": "mmpp", "rate_a": 200, "rate_b": 800, "sojourn_a": 6, "sojourn_b": 1,
               "cloudlets": %d, "warmup": %d, "mean_length_mi": 1000},
  "fleet": {"vm_mips": 1000, "vm_pes": 1, "min_vms": 1, "max_vms": 2048, "dispatch": "queue"},
  "slo": {"quantile": 0.99, "target_seconds": 6},
  "seed": %d
}`, cloudlets, warmup, seed))
}

// planConfig sizes the verdict's simulated runs.
type planConfig struct{ cloudlets, warmup int }

// planScale keeps a verdict short enough that a run answers about
// twenty-five, each on its own seed, and reports their median.
func planScale() planConfig { return planConfig{cloudlets: 25_000, warmup: 500} }

// planPlant, when set by a test, corrupts a verdict before it is checked.
var planPlant func(v *plan.Verdict)

// checkVerdict requires probe outcomes to be monotone in fleet size: every
// probe at or above MinFleet met the SLO and none below did.
func checkVerdict(v *plan.Verdict) error {
	if !v.Sustainable || v.MinFleet <= 0 {
		return fmt.Errorf("verdict is not sustainable within the fleet bounds")
	}
	for _, p := range v.Probes {
		if (p.Fleet >= v.MinFleet) != p.Met {
			return fmt.Errorf("probe at %d VMs met=%v, but the smallest fleet meeting the SLO is %d", p.Fleet, p.Met, v.MinFleet)
		}
	}
	return nil
}

func runPlanVerdict(cfg config) (*outcome, error) {
	return planVerdict(cfg, planScale())
}

// verdict is `cloudsched plan`: parse the spec, answer it, check it.
func verdict(t *tracer, id int64, data []byte) (*plan.Verdict, time.Duration, error) {
	t0 := time.Now()
	root := t.begin("verdict", id, -1)
	sp := t.begin("plan.parse", id, root)
	spec, err := plan.ParseSpec(data)
	t.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = t.begin("plan.plan", id, root)
	v, err := plan.Plan(spec, nil)
	t.end(sp)
	t.end(root)
	wall := time.Since(t0)
	if err != nil {
		return v, wall, err
	}
	if planPlant != nil {
		planPlant(v)
	}
	return v, wall, checkVerdict(v)
}

// sameVerdict requires two verdicts on one spec to agree probe by probe.
func sameVerdict(a, b *plan.Verdict) error {
	if a.MinFleet != b.MinFleet || len(a.Probes) != len(b.Probes) {
		return fmt.Errorf("MinFleet %d over %d probes, then %d over %d", a.MinFleet, len(a.Probes), b.MinFleet, len(b.Probes))
	}
	for i := range a.Probes {
		if a.Probes[i] != b.Probes[i] {
			return fmt.Errorf("probe %d: %+v, then %+v", i, a.Probes[i], b.Probes[i])
		}
	}
	return nil
}

// planVerdict answers the capacity question for one spec seed after
// another (seed, seed+2³², …) until the measuring time is spent, then
// answers the first again, which must agree. A traced run alternates
// untraced and traced verdicts on the argument's seed and, after each
// traced one, re-runs plan.Run at every probed fleet size to split the
// verdict by probe.
func planVerdict(cfg config, pc planConfig) (*outcome, error) {
	out := &outcome{}
	specFor := func(j int) []byte { return planSpec(pc.cloudlets, pc.warmup, cfg.seed+uint64(j)<<32) }

	// Set-up: parse the spec and warm the engine with one run at the
	// largest fleet the search may probe.
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		spec, err := plan.ParseSpec(specFor(0))
		if err != nil {
			return out, err
		}
		out.attempted++
		if _, err := plan.Run(spec, spec.Fleet.MaxVMs, nil); err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(t0))
	}
	count := func(v *plan.Verdict) {
		if v != nil {
			out.attempted += int64(len(v.Probes))
		}
	}

	if cfg.trace {
		return out, planTraced(cfg, specFor(0), out, count)
	}
	var first *plan.Verdict
	var rates []float64 // simulated cloudlets per second of each verdict
	var probed int64
	start := time.Now()
	for j := 0; j == 0 || time.Since(start) < cfg.seconds; j++ {
		runtime.GC() // start each verdict from the same heap, outside its time
		v, w, err := verdict(nil, int64(j), specFor(j))
		count(v)
		if err != nil {
			return out, fmt.Errorf("spec seed %d: %w", cfg.seed+uint64(j)<<32, err)
		}
		if j == 0 {
			first = v
		}
		rates = append(rates, float64(len(v.Probes)*pc.cloudlets)/w.Seconds())
		probed += int64(len(v.Probes))
		out.opMs = append(out.opMs, ms(w))
	}
	again, _, err := verdict(nil, -1, specFor(0))
	count(again)
	if err == nil {
		err = sameVerdict(first, again)
	}
	if err != nil {
		return out, fmt.Errorf("repeat of spec seed %d: %w", cfg.seed, err)
	}
	out.cloudletsPerSec = median(rates)
	out.add("verdicts", float64(len(out.opMs)), "count")
	out.add("min_fleet.first", float64(first.MinFleet), "VMs")
	out.add("probes_per_verdict", float64(probed)/float64(len(out.opMs)), "count")
	out.add("verdict_s", median(out.opMs)/1e3, "s")
	return out, nil
}

// planTraced alternates untraced and traced verdicts on one spec; all must
// agree.
func planTraced(cfg config, data []byte, out *outcome, count func(*plan.Verdict)) error {
	tr := newTracer()
	spec, err := plan.ParseSpec(data)
	if err != nil {
		return err
	}
	var plainWall, tracedWall []time.Duration
	var first *plan.Verdict
	var probeMs []float64
	var events uint64
	var id int64
	start := time.Now()
	for len(tracedWall) == 0 || time.Since(start) < cfg.seconds {
		for _, t := range []*tracer{nil, tr} {
			id++
			runtime.GC()
			v, w, err := verdict(t, id, data)
			count(v)
			if err == nil && first != nil {
				err = sameVerdict(first, v)
			}
			if err != nil {
				return err
			}
			first = v
			if t == nil {
				plainWall = append(plainWall, w)
				continue
			}
			tracedWall = append(tracedWall, w)
			// Each probe again, on its own, for its cost and event count.
			root := t.begin("reprobe", id, -1)
			for _, p := range v.Probes {
				t0 := time.Now()
				sp := t.begin("plan.run", id, root)
				rr, err := plan.Run(spec, p.Fleet, nil)
				t.end(sp)
				if err != nil {
					return fmt.Errorf("re-run at %d VMs: %w", p.Fleet, err)
				}
				if rr.SLOMet(spec) != p.Met {
					return fmt.Errorf("re-run at %d VMs: met=%v, the verdict said %v", p.Fleet, rr.SLOMet(spec), p.Met)
				}
				probeMs = append(probeMs, ms(time.Since(t0)))
				events += rr.EngineEvents
			}
			t.end(root)
		}
	}

	spans := tr.snapshot()
	var parse []float64
	for _, s := range spans {
		if s.Name == "plan.parse" {
			parse = append(parse, ms(s.dur()))
		}
	}
	n := float64(len(tracedWall))
	out.layers = map[string]float64{
		"plan.parse_ms":        median(parse),
		"plan.probes":          float64(len(probeMs)) / n,
		"plan.run_ms_p50":      median(probeMs),
		"plan.engine_events":   float64(events) / n,
		"plan.events_per_s":    float64(events) / (sum(probeMs) / 1e3),
		"trace.coverage_ratio": coverage(spans),
		"trace.overhead_ratio": meanDur(tracedWall).Seconds()/meanDur(plainWall).Seconds() - 1,
	}
	out.add("verdicts_traced", n, "count")
	out.add("min_fleet", float64(first.MinFleet), "VMs")
	addSelfTimes(out, spans, n)
	return writeSpans(spanPath(cfg, "plan-verdict"), spans)
}

func meanDur(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total / time.Duration(len(ds))
}
