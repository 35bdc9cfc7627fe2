package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: bioschedsim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkParallelFig5a/aco                     	      15	   4108897 ns/op
BenchmarkParallelFig5a/rbs                     	    4276	     14248 ns/op
BenchmarkParallelFig5a/aco-2                   	      28	   2101133 ns/op
BenchmarkParallelFig5a/aco-8                   	      90	   1050000 ns/op
BenchmarkParallelFig5a/rbs-8                   	    4100	     14900 ns/op
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
	if got := results[2].Name; got != "BenchmarkParallelFig5a/aco-2" {
		t.Fatalf("name = %q", got)
	}
	if results[0].NsPerOp != 4108897 {
		t.Fatalf("ns/op = %v", results[0].NsPerOp)
	}
	if env.Goos != "linux" || env.Goarch != "amd64" || !strings.Contains(env.CPU, "Xeon") {
		t.Fatalf("environment header not parsed: %+v", env)
	}
}

// The -cpu 1 run carries no GOMAXPROCS suffix at all; it is the family's
// serial point, not a separate family.
func TestParseBenchWithoutGomaxprocsSuffix(t *testing.T) {
	const cpuCurve = `goos: linux
BenchmarkParallelFig5a/aco           	      15	   4108897 ns/op
BenchmarkParallelFig5a/aco-8         	      15	   4100000 ns/op
`
	results, _, err := parseBench(strings.NewReader(cpuCurve))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(results))
	}
	curves := buildCurves(results)
	if len(curves) != 1 {
		t.Fatal("suffix-free and suffixed runs did not group into one curve")
	}
	if got := curves[0].NsPerOp[1]; got != 4108897 {
		t.Fatalf("suffix-free run landed at width 1 as %v", got)
	}
}

func TestSplitRunTakesWidthFromCPUSuffix(t *testing.T) {
	for name, want := range map[string]struct {
		family string
		width  int
	}{
		"BenchmarkParallelFig6b/hbo-4": {"BenchmarkParallelFig6b/hbo", 4},
		"BenchmarkParallelFig5a/aco":   {"BenchmarkParallelFig5a/aco", 1},
		"BenchmarkParallelFig5a/aco-8": {"BenchmarkParallelFig5a/aco", 8},
	} {
		family, w := splitRun(name)
		if family != want.family || w != want.width {
			t.Fatalf("%q parsed as (%q, %d), want (%q, %d)", name, family, w, want.family, want.width)
		}
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
		t.Fatalf("aco at GOMAXPROCS=2 = %v", got)
	}
}

// Under -count 3 one stalled sample among three repeats must not decide the
// verdict, on the serial side or the parallel one: each (family, width)
// keeps its fastest repeat. A slowdown in every repeat still fails.
func TestRepeatedSamplesKeepTheFastest(t *testing.T) {
	const stalled = `BenchmarkParallelFig6b/aco      	      50	   5180000 ns/op
BenchmarkParallelFig6b/aco-2    	      80	   3300000 ns/op
BenchmarkParallelFig6b/aco-4    	      80	   6700000 ns/op
BenchmarkParallelFig6b/aco      	      50	   4000000 ns/op
BenchmarkParallelFig6b/aco-2    	      20	   9000000 ns/op
BenchmarkParallelFig6b/aco-4    	      80	   3200000 ns/op
BenchmarkParallelFig6b/aco      	      50	   4100000 ns/op
BenchmarkParallelFig6b/aco-2    	      20	   8800000 ns/op
BenchmarkParallelFig6b/aco-4    	      20	   9100000 ns/op
`
	results, _, err := parseBench(strings.NewReader(stalled))
	if err != nil {
		t.Fatal(err)
	}
	curves := buildCurves(results)
	if len(curves) != 1 {
		t.Fatalf("got %d curves, want 1", len(curves))
	}
	want := map[int]float64{1: 4000000, 2: 3300000, 4: 3200000}
	for w, ns := range want {
		if got := curves[0].NsPerOp[w]; got != ns {
			t.Errorf("GOMAXPROCS=%d kept %v ns/op, want the fastest repeat %v", w, got, ns)
		}
	}
	// Every width's last repeat stalls: keeping the last repeat instead of
	// the fastest would fail this input at 2.15x.
	var out strings.Builder
	if err := run(strings.NewReader(stalled), &out, 1.10, 1e6); err != nil {
		t.Fatalf("one stalled sample per width decided the verdict: %v\n%s", err, out.String())
	}
	const everyRepeatSlow = `BenchmarkParallelFig6b/aco      	      50	   4000000 ns/op
BenchmarkParallelFig6b/aco-2    	      45	   4600000 ns/op
BenchmarkParallelFig6b/aco      	      50	   4100000 ns/op
BenchmarkParallelFig6b/aco-2    	      45	   4700000 ns/op
BenchmarkParallelFig6b/aco      	      50	   4050000 ns/op
BenchmarkParallelFig6b/aco-2    	      45	   4650000 ns/op
`
	out.Reset()
	if err := run(strings.NewReader(everyRepeatSlow), &out, 1.10, 1e6); err == nil {
		t.Fatalf("a slowdown in every repeat passed the gate:\n%s", out.String())
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
	if len(violations) != 1 || !strings.Contains(violations[0], "-cpu 1") {
		t.Fatalf("missing-baseline violation = %v", violations)
	}
}

func TestRunGateEndToEnd(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(sampleOutput), &out, 1.10, 1e6); err != nil {
		t.Fatalf("gate failed on healthy sample: %v\n%s", err, out.String())
	}
	// The aco family (ms-scale) is gated; the rbs family (14us) is skipped.
	if !strings.Contains(out.String(), "ok: 1 families gated") || !strings.Contains(out.String(), "(1 skipped)") {
		t.Fatalf("summary missing: %q", out.String())
	}
	// A planted 15% slowdown at every parallel width fails the 1.10 gate.
	const slowed = `BenchmarkParallelFig6b/aco      	      50	   4000000 ns/op
BenchmarkParallelFig6b/aco-2    	      45	   4600000 ns/op
BenchmarkParallelFig6b/aco-4    	      45	   4600000 ns/op
BenchmarkParallelFig6b/aco-8    	      45	   4600000 ns/op
`
	out.Reset()
	if err := run(strings.NewReader(slowed), &out, 1.10, 1e6); err == nil {
		t.Fatalf("15%% slowdown at every width passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkParallelFig6b/aco") || !strings.Contains(out.String(), "1.15x") {
		t.Fatalf("planted slowdown not reported: %q", out.String())
	}
	// Empty input is an error, not a silent pass.
	if err := run(strings.NewReader("PASS\n"), &out, 1.10, 1e6); err == nil {
		t.Fatal("empty input passed the gate")
	}
}
