package main

import (
	"strings"
	"testing"
	"time"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: bioschedsim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkParallelFig5a/aco/workers-1-4         	      15	   4108897 ns/op
BenchmarkParallelFig5a/aco/workers-2-4         	      28	   2101133 ns/op
BenchmarkParallelFig5a/aco/workers-8-4         	      90	   1050000 ns/op
BenchmarkParallelFig5a/rbs/workers-1-4         	    4276	     14248 ns/op
BenchmarkParallelFig5a/rbs/workers-8-4         	    4100	     14900 ns/op
BenchmarkFig5a_HomogeneousSchedTime/aco-4      	     100	   9999999 ns/op
PASS
ok  	bioschedsim	0.200s
`

func TestParseBenchExtractsResultsAndEnvironment(t *testing.T) {
	results, env, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("parsed %d results, want 6", len(results))
	}
	// The -4 GOMAXPROCS suffix must be stripped from every name.
	if got := results[0].Name; got != "BenchmarkParallelFig5a/aco/workers-1" {
		t.Fatalf("name = %q", got)
	}
	if results[0].NsPerOp != 4108897 {
		t.Fatalf("ns/op = %v", results[0].NsPerOp)
	}
	if env.Goos != "linux" || env.Goarch != "amd64" || !strings.Contains(env.CPU, "Xeon") {
		t.Fatalf("environment header not parsed: %+v", env)
	}
}

// Single-core hosts emit no GOMAXPROCS suffix at all; workers-K leaves
// must survive normalization untouched there.
func TestParseBenchWithoutGomaxprocsSuffix(t *testing.T) {
	const singleCore = `goos: linux
BenchmarkParallelFig5a/aco/workers-1         	      15	   4108897 ns/op
BenchmarkParallelFig5a/aco/workers-8         	      15	   4100000 ns/op
`
	results, _, err := parseBench(strings.NewReader(singleCore))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(results))
	}
	if got := results[0].Name; got != "BenchmarkParallelFig5a/aco/workers-1" {
		t.Fatalf("suffix-free workers leaf mangled to %q", got)
	}
	if len(buildCurves(results)) != 1 {
		t.Fatal("suffix-free results did not group into a curve")
	}
}

func TestWorkersRunSplitsFamilyAndCount(t *testing.T) {
	for name, want := range map[string]struct {
		family  string
		workers int
	}{
		"BenchmarkParallelFig6b/hbo/workers-4": {"BenchmarkParallelFig6b/hbo", 4},
		"BenchmarkParallelFig5a/aco/workers-1": {"BenchmarkParallelFig5a/aco", 1},
		"BenchmarkParallelFig5a/aco/workers-8": {"BenchmarkParallelFig5a/aco", 8},
	} {
		family, w, ok := workersRun(name)
		if !ok || family != want.family || w != want.workers {
			t.Fatalf("%q parsed as (%q, %d, %v), want (%q, %d)", name, family, w, ok, want.family, want.workers)
		}
	}
	// Non-sweep benchmarks are excluded, not misparsed.
	if _, _, ok := workersRun("BenchmarkFig5a_HomogeneousSchedTime/aco"); ok {
		t.Fatal("non-sweep name matched")
	}
}

func TestBuildCurvesGroupsByFamily(t *testing.T) {
	results, _, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	curves := buildCurves(results)
	if len(curves) != 2 {
		t.Fatalf("got %d curves, want 2 (aco, rbs); the non-sweep bench must be dropped", len(curves))
	}
	// Sorted by family name: aco before rbs.
	if curves[0].Family != "BenchmarkParallelFig5a/aco" {
		t.Fatalf("first family = %q", curves[0].Family)
	}
	if got := curves[0].NsPerOp[2]; got != 2101133 {
		t.Fatalf("aco workers-2 = %v", got)
	}
	if got := curves[0].widest(); got != 8 {
		t.Fatalf("widest = %d", got)
	}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	curves := []curve{
		{Family: "f/aco", NsPerOp: map[int]float64{1: 1000, 8: 500}},  // speedup
		{Family: "f/rbs", NsPerOp: map[int]float64{1: 1000, 8: 1050}}, // 5% overhead, under 10%
	}
	violations, note, _ := gate(curves, 1.10, 4, 0)
	if len(violations) != 0 {
		t.Fatalf("unexpected violations: %v", violations)
	}
	if note != "" {
		t.Fatalf("multicore run produced a single-core note: %q", note)
	}
}

func TestGateFlagsSlowParallelRuns(t *testing.T) {
	curves := []curve{
		{Family: "f/hbo", NsPerOp: map[int]float64{1: 1000, 2: 1350, 8: 1200}}, // best width 20% slower
	}
	violations, _, _ := gate(curves, 1.10, 4, 0)
	if len(violations) != 1 {
		t.Fatalf("violations = %v, want exactly 1", violations)
	}
	if !strings.Contains(violations[0], "f/hbo") || !strings.Contains(violations[0], "1.20x") {
		t.Fatalf("violation message lacks family/ratio: %q", violations[0])
	}
}

// One noisy width must not fail the gate: the comparison is against the
// best parallel width, since a real serialization bug slows all of them.
func TestGateToleratesSingleNoisyWidth(t *testing.T) {
	curves := []curve{
		{Family: "f/hbo", NsPerOp: map[int]float64{1: 1000, 2: 1020, 4: 990, 8: 1300}},
	}
	violations, _, _ := gate(curves, 1.10, 4, 0)
	if len(violations) != 0 {
		t.Fatalf("noisy widest width failed the gate: %v", violations)
	}
}

// Micro-scale families (serial below the floor) are skipped, not judged:
// at smoke benchtimes their spread is timer noise, not regression signal.
func TestGateSkipsMicroScaleFamilies(t *testing.T) {
	curves := []curve{
		{Family: "f/rbs", NsPerOp: map[int]float64{1: 14000, 8: 20000}},     // micro, 43% "slower"
		{Family: "f/aco", NsPerOp: map[int]float64{1: 4000000, 8: 3900000}}, // large, gated
	}
	violations, _, skipped := gate(curves, 1.10, 4, 1e6)
	if len(violations) != 0 {
		t.Fatalf("micro-scale family was gated: %v", violations)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	// With the floor off, the same micro family fails — the skip is the
	// floor's doing, not a hole in the comparison.
	violations, _, skipped = gate(curves, 1.10, 4, 0)
	if len(violations) != 1 || skipped != 0 {
		t.Fatalf("floor-off gate = (%v, %d)", violations, skipped)
	}
}

func TestGateNotesSingleCoreHosts(t *testing.T) {
	curves := []curve{{Family: "f/aco", NsPerOp: map[int]float64{1: 1000, 8: 1000}}}
	_, note, _ := gate(curves, 1.10, 1, 0)
	if !strings.Contains(note, "GOMAXPROCS=1") {
		t.Fatalf("single-core note missing: %q", note)
	}
	// The threshold still applies: overhead past the limit fails even there.
	violations, _, _ := gate([]curve{{Family: "f/aco", NsPerOp: map[int]float64{1: 1000, 8: 1500}}}, 1.10, 1, 0)
	if len(violations) != 1 {
		t.Fatalf("single-core overhead violation not flagged: %v", violations)
	}
}

func TestGateRequiresSerialBaseline(t *testing.T) {
	curves := []curve{{Family: "f/aco", NsPerOp: map[int]float64{8: 500}}}
	violations, _, _ := gate(curves, 1.10, 4, 0)
	if len(violations) != 1 || !strings.Contains(violations[0], "workers-1") {
		t.Fatalf("missing-baseline violation = %v", violations)
	}
}

func TestJSONRecordShape(t *testing.T) {
	curves := []curve{{Family: "f/aco", NsPerOp: map[int]float64{1: 1000, 4: 400}}}
	env := environment{Goos: "linux", Cores: 4}
	rec := jsonRecord(curves, env, "test record", time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC))
	if rec["date"] != "2026-08-06" {
		t.Fatalf("date = %v", rec["date"])
	}
	fams := rec["curves"].(map[string]any)
	entry := fams["f/aco"].(map[string]any)
	if entry["workers_1_ns_op"] != 1000.0 || entry["workers_4_ns_op"] != 400.0 {
		t.Fatalf("curve entry = %v", entry)
	}
	if entry["speedup_at_4"] != "2.50x" {
		t.Fatalf("speedup = %v", entry["speedup_at_4"])
	}
}

func TestRunGateEndToEnd(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sampleOutput), &out, true, 1.10, 1e6, "", ""); err != nil {
		t.Fatalf("gate failed on healthy sample: %v\n%s", err, out.String())
	}
	// The aco family (ms-scale) is gated; the rbs family (14us) is skipped.
	if !strings.Contains(out.String(), "ok: 1 families gated") || !strings.Contains(out.String(), "(1 skipped)") {
		t.Fatalf("summary missing: %q", out.String())
	}
	// Empty input is an error, not a silent pass.
	if err := run(strings.NewReader("PASS\n"), &out, true, 1.10, 1e6, "", ""); err == nil {
		t.Fatal("empty input passed the gate")
	}
}
