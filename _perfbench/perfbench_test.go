package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/online"
	"bioschedsim/internal/plan"
	"bioschedsim/internal/workload"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.2: 1, 0.5: 3, 0.9: 5, 1: 5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, q, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

// TestTailQuantileKeepsTenBeyond pins the rule for the reported tail: the
// highest of p99.9, p99 and p90 that leaves at least ten samples above it.
func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to prove sorting
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		q     float64
		value float64
	}{
		{100, 0.9, 90},
		{999, 0.9, 900},
		{1000, 0.99, 990},
		{9999, 0.99, 9900},
		{10000, 0.999, 9990},
	} {
		v, q, ok := tailQuantile(seq(tc.n))
		if !ok || q != tc.q || v != tc.value {
			t.Errorf("n=%d: tail = (%v, p%v, %v), want (%v, p%v, true)", tc.n, v, q*100, ok, tc.value, tc.q*100)
		}
	}
	if _, _, ok := tailQuantile(seq(99)); ok {
		t.Error("99 samples cannot give a p90 with ten beyond it")
	}
}

func TestDueTimesDeterministicPerSeed(t *testing.T) {
	a, b := dueTimes(5000, 3000, 7), dueTimes(5000, 3000, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed and rate gave two schedules")
	}
	if reflect.DeepEqual(a, dueTimes(5000, 3000, 8)) {
		t.Fatal("different seeds gave one schedule")
	}
	if reflect.DeepEqual(a, dueTimes(5000, 500, 7)) {
		t.Fatal("different rates gave one schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes back in time at %d", i)
		}
	}
	// 5000 arrivals at 3000/s span about 1.67 s.
	if span := a[len(a)-1]; span < 1500*time.Millisecond || span > 1850*time.Millisecond {
		t.Errorf("5000 arrivals at 3000/s span %v", span)
	}
}

// TestTimedPolicyPlacesLikeThePolicy runs one trace through each online
// policy with and without the timing wrapper: placements, finish times and
// Eq. 12/13 must be identical, and the wrapper forwards feedback exactly
// when the policy takes it.
func TestTimedPolicyPlacesLikeThePolicy(t *testing.T) {
	proc, err := workload.NewMMPP(2, 16, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(name string, wrap bool) (uint64, int64) {
		entries, err := workload.SyntheticTraceFrom(workload.HeterogeneousCloudletSpec(), 3000, proc, 3)
		if err != nil {
			t.Fatal(err)
		}
		cls, arrivals := workload.Split(entries)
		fleet := workload.GenerateVMs(workload.HeterogeneousVMSpec(), 8, 3)
		env, err := workload.GenerateEnvironment(workload.HeterogeneousDatacenterSpec(2), fleet, 3)
		if err != nil {
			t.Fatal(err)
		}
		policy, err := online.NewPolicy(name, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		var timed *timedPolicy
		if wrap {
			inner := policy
			policy, timed = timePolicy(inner)
			_, innerLearns := inner.(online.Feedback)
			_, wrapperLearns := policy.(online.Feedback)
			if innerLearns != wrapperLearns {
				t.Fatalf("%s: policy takes feedback %v, wrapper %v", name, innerLearns, wrapperLearns)
			}
		}
		res, err := online.Run(env, policy, cls, arrivals, cloud.TimeSharedFactory)
		if err != nil {
			t.Fatal(err)
		}
		if timed != nil {
			return resultDigest(res), timed.calls
		}
		return resultDigest(res), -1
	}
	learners := 0
	for _, name := range online.PolicyNames() {
		p, _ := online.NewPolicy(name, rand.New(rand.NewSource(1)))
		if _, ok := p.(online.Feedback); ok {
			learners++
		}
		plain, _ := replay(name, false)
		wrapped, calls := replay(name, true)
		if plain != wrapped {
			t.Errorf("%s: wrapped placements differ", name)
		}
		if calls != 3000 {
			t.Errorf("%s: wrapper counted %d Place calls, want 3000", name, calls)
		}
	}
	if learners == 0 {
		t.Error("no online policy takes feedback, so forwarding went untested")
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	// root [0,100) with children [10,40) and [30,60) overlapping, and a
	// grandchild [15,20) inside the first child.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},
		{Name: "c", Parent: 1, Start: 15, End: 20},
	}
	self := selfTimes(spans)
	if want := []time.Duration{50, 25, 30, 5}; !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if got := coverage(spans); got != 0.5 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
}

// smallConfig runs a workload for a moment in a temporary directory.
func smallConfig(t *testing.T, trace bool) config {
	return config{seed: 5, seconds: 200 * time.Millisecond, trace: trace, workdir: t.TempDir()}
}

func smallPaper() paperConfig {
	return paperConfig{vmCounts: []int{4, 9}, cloudlets: 40, dcs: 2, minSweeps: 13}
}

func smallReplay() replayConfig {
	return replayConfig{rows: 2000, vms: 6, dcs: 2}
}

func smallPlan() planConfig { return planConfig{cloudlets: 3000, warmup: 100} }

func smallServe() serveConfig {
	sc := serveScale()
	sc.vms, sc.rates, sc.warmup = 8, []float64{100, 400}, 16
	return sc
}

// command runs the workload and the command's reporting, returning the
// exit code and the result line.
func command(t *testing.T, name string, cfg config, w func(config) (*outcome, error)) (int, result, string) {
	t.Helper()
	out, err := w(cfg)
	var stdout, stderr bytes.Buffer
	code := finish(name, cfg, out, err, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", name, jerr, stdout.String())
	}
	return code, res, stdout.String() + stderr.String()
}

var smallWorkloads = map[string]func(config) (*outcome, error){
	"paper-het":    func(c config) (*outcome, error) { return paperHet(c, smallPaper()) },
	"replay-trace": func(c config) (*outcome, error) { return replayTrace(c, smallReplay()) },
	"serve-http":   func(c config) (*outcome, error) { return serveHTTP(c, smallServe()) },
	"plan-verdict": func(c config) (*outcome, error) { return planVerdict(c, smallPlan()) },
}

// TestWorkloadsReportEveryMetric runs each workload small, untraced and
// traced: each passes its checks and reports exactly the metrics the
// benchmark defines, with the traced run's span file written.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, name := range workloadOrder {
		for _, trace := range []bool{false, true} {
			cfg := smallConfig(t, trace)
			code, res, log := command(t, name, cfg, smallWorkloads[name])
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", name, trace, code, res, log)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if trace {
				if c := res.Metrics["trace.coverage_ratio"].Value; c < 0.9 || c > 1 {
					t.Errorf("%s: span coverage %v, want within [0.9, 1]", name, c)
				}
				if _, err := os.Stat(spanPath(cfg, name)); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
		}
	}
}

// TestPlantedBadOutputsFailTheCommand corrupts each workload's outputs and
// requires the command to exit non-zero with correct=false.
func TestPlantedBadOutputsFailTheCommand(t *testing.T) {
	defer func() { paperPlant, replayPlant, servePlant, planPlant = nil, nil, nil, nil }()
	cases := []struct {
		name, workload, want string
		plant                func()
	}{
		{"dropped cloudlet", "paper-het", "cloudlets finished", func() {
			paperPlant = func(res *cloud.Result, _ *metrics.Report) { res.Finished = res.Finished[1:] }
		}},
		{"corrupted digest", "paper-het", "digest", func() {
			// Every run of a batch now reads a little differently, so the
			// repeat of the first sweep no longer matches it.
			calls := 0.0
			paperPlant = func(_ *cloud.Result, rep *metrics.Report) {
				calls++
				rep.Imbalance += calls * 1e-9
			}
		}},
		{"report disagrees with run", "paper-het", "Eq. 12", func() {
			paperPlant = func(_ *cloud.Result, rep *metrics.Report) { rep.SimTime++ }
		}},
		{"dropped trace row", "replay-trace", "read 1999 rows", func() {
			replayPlant = func(entries *[]workload.TraceEntry, _ *online.Result) { *entries = (*entries)[1:] }
		}},
		{"corrupted trace row", "replay-trace", "hash", func() {
			replayPlant = func(entries *[]workload.TraceEntry, _ *online.Result) { (*entries)[7].Cloudlet.Length++ }
		}},
		{"unfinished replay cloudlet", "replay-trace", "cloudlets finished", func() {
			replayPlant = func(_ *[]workload.TraceEntry, res *online.Result) { res.Finished = res.Finished[1:] }
		}},
		{"acknowledged but lost", "serve-http", "never finished", func() {
			servePlant = func(reqs []request) { reqs[0].state = "queued" }
		}},
		{"non-monotone probes", "plan-verdict", "smallest fleet", func() {
			planPlant = func(v *plan.Verdict) { v.Probes[len(v.Probes)-1].Met = !v.Probes[len(v.Probes)-1].Met }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			paperPlant, replayPlant, servePlant, planPlant = nil, nil, nil, nil
			tc.plant()
			code, res, log := command(t, tc.workload, smallConfig(t, false), smallWorkloads[tc.workload])
			if code == 0 || res.Correct {
				t.Fatalf("exit %d, correct %v with a planted fault\n%s", code, res.Correct, log)
			}
			if res.Failed != res.Attempted || !regexp.MustCompile(`failed_ratio +1 ratio`).MatchString(log) {
				t.Errorf("a failed run must report failed_ratio 1: %+v\n%s", res, log)
			}
			if !strings.Contains(log, tc.want) {
				t.Errorf("error does not mention %q:\n%s", tc.want, log)
			}
		})
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric definitions here and
// in BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadOrder)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestAllIsolatesAFailingWorkload runs the all mode over a stand-in
// binary whose replay-trace run crashes: that workload reports
// failed_ratio 1, the others still report, and the command fails.
func TestAllIsolatesAFailingWorkload(t *testing.T) {
	dir := t.TempDir()
	fake := filepath.Join(dir, "fake")
	script := `#!/bin/sh
case "$2" in
replay-trace) echo "replay-trace: boom" >&2; exit 3 ;;
*) echo '{"correct":true,"attempted":2,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}' ;;
esac
`
	if err := os.WriteFile(fake, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := runAll(fake, smallConfig(t, false), &stdout, &stderr)
	if code == 0 {
		t.Fatalf("all mode passed with a crashed workload:\n%s", stdout.String())
	}
	if !regexp.MustCompile(`replay-trace +failed_ratio +1 ratio`).MatchString(stdout.String()) {
		t.Errorf("no failed_ratio 1 for the crashed workload:\n%s", stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadOrder {
		_, ok := res.Metrics[name+"/setup_s"]
		if ok == (name == "replay-trace") {
			t.Errorf("%s: reported %v", name, ok)
		}
	}
	if res.Correct || res.Attempted != 7 || res.Failed != 1 {
		t.Errorf("merged result %+v, want incorrect with 7 attempted, 1 failed", res)
	}
}
