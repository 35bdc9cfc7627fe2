package plan

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"bioschedsim/internal/xrand"
)

// oracleSweep is the documented qmodel-differential table: the simulated
// queue must agree with the analytic M/M/1 and M/M/c mean wait within
// these relative-error bands. The configuration is fixed-seed and fully
// deterministic, so the bands are not statistical gambles — they were
// measured once (max observed 7.4% at ρ=0.3, c=4, where the tiny absolute
// Wq ≈ 13 ms amplifies relative error) and hold bit-for-bit in CI. ρ=0.9
// gets a wider band and a longer stream because an M/M/1 queue's
// relaxation time grows like 1/(μ(1−ρ)²): at ρ=0.9 transients decay ~36×
// slower than at ρ=0.6, so the estimator needs 60k arrivals and still
// carries more autocorrelation-induced error.
var oracleSweep = []OracleCase{
	{Rho: 0.3, Servers: 1, VMs: 1, N: 20000, Warmup: 2000, Mu: 1, Seed: 1, Tol: 0.10},
	{Rho: 0.6, Servers: 1, VMs: 1, N: 20000, Warmup: 2000, Mu: 1, Seed: 1, Tol: 0.10},
	{Rho: 0.9, Servers: 1, VMs: 1, N: 60000, Warmup: 10000, Mu: 1, Seed: 1, Tol: 0.15},
	{Rho: 0.3, Servers: 4, VMs: 4, N: 20000, Warmup: 2000, Mu: 1, Seed: 1, Tol: 0.10},
	{Rho: 0.6, Servers: 4, VMs: 4, N: 20000, Warmup: 2000, Mu: 1, Seed: 1, Tol: 0.10},
	{Rho: 0.9, Servers: 4, VMs: 4, N: 60000, Warmup: 10000, Mu: 1, Seed: 1, Tol: 0.15},
	{Rho: 0.3, Servers: 4, VMs: 1, N: 20000, Warmup: 2000, Mu: 1, Seed: 1, Tol: 0.10},
	{Rho: 0.6, Servers: 4, VMs: 1, N: 20000, Warmup: 2000, Mu: 1, Seed: 1, Tol: 0.10},
	{Rho: 0.9, Servers: 4, VMs: 1, N: 60000, Warmup: 10000, Mu: 1, Seed: 1, Tol: 0.15},
}

// judgeOracle runs one differential case and returns "" when the simulated
// mean wait lands inside the case's band with every post-warmup completion
// recorded, else the failure text ending in a runnable `cloudsched plan
// oracle` replay line. opts plants a broken process or recorder; nil runs
// the real engine. The green sweep and both plant tests judge through it.
func judgeOracle(c OracleCase, opts *RunOptions) string {
	res, err := c.RunOracle(opts)
	var why string
	switch {
	case err != nil:
		why = err.Error()
	case res.Count != uint64(c.N-c.Warmup):
		why = fmt.Sprintf("sample loss: recorded %d of %d post-warmup completions", res.Count, c.N-c.Warmup)
	case res.RelErr > c.Tol:
		why = fmt.Sprintf("sim %.4f vs theory %.4f — rel err %.4f exceeds band %.2f", res.SimMeanWait, res.TheoryWait, res.RelErr, c.Tol)
	case !res.Pass(c):
		why = fmt.Sprintf("Pass() inconsistent with its parts: %+v", res)
	default:
		return ""
	}
	return fmt.Sprintf("rho=%v c=%d vms=%d: %s\nreplay: %s", c.Rho, c.Servers, c.VMs, why, c.ReplayCommand())
}

// TestQModelDifferential is the headline differential: simulated mean wait
// vs the analytic oracle across the ρ-sweep, plus full sample accounting.
func TestQModelDifferential(t *testing.T) {
	for _, c := range oracleSweep {
		if msg := judgeOracle(c, nil); msg != "" {
			t.Error(msg)
		}
	}
}

// TestOracleCasesMatchDocumentedBands pins the sweep table itself: every
// case is valid, every ρ ∈ {0.3, 0.6, 0.9} appears against both an M/M/1
// and an M/M/c fleet, and the bands match the documented 10%/15% policy.
func TestOracleCasesMatchDocumentedBands(t *testing.T) {
	seen := map[[2]any]bool{}
	for _, c := range oracleSweep {
		if err := c.Validate(); err != nil {
			t.Fatalf("sweep case invalid: %v", err)
		}
		seen[[2]any{c.Rho, c.Servers}] = true
		want := 0.10
		if c.Rho == 0.9 {
			want = 0.15
		}
		if c.Tol != want {
			t.Errorf("rho=%v c=%d: band %v, documented policy %v", c.Rho, c.Servers, c.Tol, want)
		}
	}
	for _, rho := range []float64{0.3, 0.6, 0.9} {
		for _, servers := range []int{1, 4} {
			if !seen[[2]any{rho, servers}] {
				t.Errorf("sweep missing rho=%v servers=%d", rho, servers)
			}
		}
	}
}

// firstOracleFailure judges the sweep case by case with a fresh plant from
// opts and returns the first failure text, "" when every case passes.
func firstOracleFailure(opts func(OracleCase) *RunOptions) string {
	for _, c := range oracleSweep {
		if msg := judgeOracle(c, opts(c)); msg != "" {
			return msg
		}
	}
	return ""
}

// biasedPoisson is the seeded broken-arrival plant: it draws exponential
// interarrivals like the real Poisson process but scales every interarrival
// by 0.75, the classic "forgot the rate divisor vs scale" generator bug.
// The effective rate is λ/0.75, so at the sweep's ρ=0.3 case the queue
// actually runs at ρ=0.4 and the mean wait lands ~55% off theory — far
// outside every band.
type biasedPoisson struct{ rate float64 }

func (b biasedPoisson) Name() string    { return "biased-poisson" }
func (b biasedPoisson) Rate() float64   { return b.rate }
func (b biasedPoisson) Validate() error { return nil }

func (b biasedPoisson) Offsets(n int, seed uint64) ([]float64, error) {
	r := xrand.New(seed, 5)
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += 0.75 * r.ExpFloat64() / b.rate
		out[i] = t
	}
	return out, nil
}

// TestQModelDifferentialCatchesBiasedArrivals plants the biased generator
// through RunOptions: the differential's judgment must fail with a
// runnable replay line.
func TestQModelDifferentialCatchesBiasedArrivals(t *testing.T) {
	msg := firstOracleFailure(func(c OracleCase) *RunOptions {
		return &RunOptions{Process: biasedPoisson{rate: c.Lambda()}}
	})
	if msg == "" {
		t.Fatal("biased interarrival generator passed the qmodel differential")
	}
	if !strings.Contains(msg, "cloudsched plan oracle -rho ") {
		t.Fatalf("failure lacks a replay line: %s", msg)
	}
}

// droppingRecorder is the seeded broken-measurement plant: it silently
// discards every 10th observation — the "metrics pipeline sampled away the
// tail" failure that makes SLO verdicts optimistic.
type droppingRecorder struct {
	inner *LatencyStats
	seen  int
}

func (d *droppingRecorder) Observe(wait, latency float64) {
	d.seen++
	if d.seen%10 == 0 {
		return
	}
	d.inner.Observe(wait, latency)
}

func (d *droppingRecorder) Count() uint64              { return d.inner.Count() }
func (d *droppingRecorder) MeanWait() float64          { return d.inner.MeanWait() }
func (d *droppingRecorder) Quantile(q float64) float64 { return d.inner.Quantile(q) }

// TestQModelDifferentialCatchesDroppedSamples plants the dropping recorder
// through RunOptions: count conservation (N − Warmup recorded
// observations) must flag it as sample loss, again with a replay line.
func TestQModelDifferentialCatchesDroppedSamples(t *testing.T) {
	msg := firstOracleFailure(func(OracleCase) *RunOptions {
		return &RunOptions{Recorder: &droppingRecorder{inner: NewLatencyStats()}}
	})
	if msg == "" {
		t.Fatal("sample-dropping recorder passed the qmodel differential")
	}
	if !strings.Contains(msg, "sample loss") {
		t.Fatalf("failure not attributed to sample loss: %s", msg)
	}
	if !strings.Contains(msg, "cloudsched plan oracle -rho ") {
		t.Fatalf("failure lacks a replay line: %s", msg)
	}
}

// TestCentralQueueFleetShapeInvariant pins the M/M/c equivalence that makes
// the oracle differential meaningful: a 4-VM × 1-PE fleet behind the
// central queue and a single 4-PE VM are the same queueing system, so with
// identical seeds they must record the same samples, bit for bit and in
// the same order. The recursion sees 4 servers either way, so on Run this
// holds by construction; on the DES oracle it pins centralQueue and
// SpaceShared to the M/M/c shape the recursion assumes.
func TestCentralQueueFleetShapeInvariant(t *testing.T) {
	multi := OracleCase{Rho: 0.6, Servers: 4, VMs: 4, N: 20000, Warmup: 2000, Mu: 1, Seed: 5, Tol: 0.10}
	single := multi
	single.VMs = 1
	for name, run := range map[string]func(*Spec, int, *RunOptions) (*RunResult, error){"recursion": Run, "des": runDESQueue} {
		a := probeDigest(t, run, multi.Spec(), multi.VMs, nil)
		b := probeDigest(t, run, single.Spec(), single.VMs, nil)
		if a != b {
			t.Fatalf("%s: 4×1PE digest %s differs from 1×4PE digest %s", name, a, b)
		}
	}
}

// TestRunDeterministic pins run-level reproducibility: same spec, same
// seed, same statistics, and a different seed moves them.
func TestRunDeterministic(t *testing.T) {
	spec, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload.Cloudlets, spec.Workload.Warmup = 4000, 400
	a, err := Run(spec, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Recorder.MeanWait() != b.Recorder.MeanWait() || a.Recorder.Quantile(0.99) != b.Recorder.Quantile(0.99) {
		t.Fatalf("identical runs diverged: %v vs %v", a.Recorder.MeanWait(), b.Recorder.MeanWait())
	}
	other := *spec
	other.Seed = spec.Seed + 1
	c, err := Run(&other, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Recorder.MeanWait() == c.Recorder.MeanWait() {
		t.Fatal("different seeds produced identical mean wait")
	}
}

// TestRunSpreadDispatch exercises the per-VM-queue path: everything
// finishes, all post-warmup samples are recorded, and waits are
// non-negative.
func TestRunSpreadDispatch(t *testing.T) {
	spec, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec.Fleet.Dispatch = DispatchSpread
	spec.Workload.Cloudlets, spec.Workload.Warmup = 3000, 300
	res, err := Run(spec, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorder.Count() != 2700 {
		t.Fatalf("recorded %d samples, want 2700", res.Recorder.Count())
	}
	if mw := res.Recorder.MeanWait(); math.IsNaN(mw) || mw < 0 {
		t.Fatalf("mean wait %v", mw)
	}
	if res.PeakFleet != 12 || res.ScaleUps != 0 {
		t.Fatalf("static run reported scaling: %+v", res)
	}
}

// TestRunElastic drives the autoscaled variant: an underprovisioned fleet
// facing a sustained overload must scale up, finish everything, and record
// every post-warmup sample.
func TestRunElastic(t *testing.T) {
	spec, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload.Rate = 6 // needs ~6 servers at μ=1; starts with 1
	spec.Workload.Cloudlets, spec.Workload.Warmup = 4000, 400
	spec.Fleet.MinVMs, spec.Fleet.MaxVMs = 1, 16
	spec.Elastic = &ElasticSpec{ScaleUpLoad: 3, ScaleDownLoad: 0.5, Interval: 5}
	res, err := Run(spec, spec.Fleet.MinVMs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleUps == 0 {
		t.Fatal("overloaded elastic run never scaled up")
	}
	if res.PeakFleet <= 1 || res.PeakFleet > 16 {
		t.Fatalf("peak fleet %d out of bounds", res.PeakFleet)
	}
	if res.Recorder.Count() != 3600 {
		t.Fatalf("recorded %d samples, want 3600", res.Recorder.Count())
	}
}

// TestRunRejects covers the run-level argument guards.
func TestRunRejects(t *testing.T) {
	spec, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, 0, nil); err == nil {
		t.Fatal("fleet 0 accepted")
	}
	bad := *spec
	bad.SLO.TargetSeconds = math.NaN()
	if _, err := Run(&bad, 1, nil); err == nil {
		t.Fatal("invalid spec accepted by Run")
	}
}

// TestPlanBinarySearch validates the verdict against a brute-force linear
// scan: Plan's MinFleet must be the smallest fleet size whose SLO probe
// passes, and the probes must hold the bracket the search ends on.
func TestPlanBinarySearch(t *testing.T) {
	spec, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	// λ=8, μ=1: stability needs ≥ 9 servers. The exponential service time
	// alone puts p95 ≈ 3.0 s (ln 20), so the achievable part of the SLO
	// target is the queueing headroom above that.
	spec.Workload.Cloudlets, spec.Workload.Warmup = 4000, 400
	spec.Fleet.MinVMs, spec.Fleet.MaxVMs = 1, 24
	spec.SLO = SLOSpec{Quantile: 0.95, TargetSeconds: 4}

	v, err := Plan(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Sustainable {
		t.Fatalf("24 VMs at λ=8 μ=1 should sustain p95 ≤ 4 s: %+v", v.Probes)
	}
	checkBoundary(t, "λ=8 μ=1 p95 ≤ 4 s", v)

	smallest := 0
	for fleet := spec.Fleet.MinVMs; fleet <= spec.Fleet.MaxVMs; fleet++ {
		res, err := Run(spec, fleet, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.SLOMet(spec) {
			smallest = fleet
			break
		}
	}
	if smallest == 0 {
		t.Fatal("linear scan found no passing fleet")
	}
	if v.MinFleet != smallest {
		t.Fatalf("Plan MinFleet %d, linear scan %d", v.MinFleet, smallest)
	}
}

// TestPlanUnsustainable checks the bracket short-circuit: when even the
// max fleet misses the SLO, Plan reports unsustainable after one probe.
func TestPlanUnsustainable(t *testing.T) {
	spec, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload.Cloudlets, spec.Workload.Warmup = 3000, 300
	spec.Fleet.MinVMs, spec.Fleet.MaxVMs = 1, 4 // λ=8, μ=1: 4 servers can't
	v, err := Plan(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Sustainable || v.MinFleet != 0 {
		t.Fatalf("unsustainable spec judged sustainable: %+v", v)
	}
	if len(v.Probes) != 1 {
		t.Fatalf("expected exactly the bracket probe, got %d", len(v.Probes))
	}
}

// TestPlanElasticVerdict runs the elastic path end to end.
func TestPlanElasticVerdict(t *testing.T) {
	spec, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload.Rate = 4
	spec.Workload.Cloudlets, spec.Workload.Warmup = 4000, 400
	spec.SLO = SLOSpec{Quantile: 0.95, TargetSeconds: 60}
	spec.Fleet.MinVMs, spec.Fleet.MaxVMs = 1, 16
	spec.Elastic = &ElasticSpec{ScaleUpLoad: 3, ScaleDownLoad: 0.5, Interval: 5}
	v, err := Plan(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Elastic || len(v.Probes) != 1 {
		t.Fatalf("elastic verdict shape wrong: %+v", v)
	}
	if v.Sustainable && v.MinFleet != v.Probes[0].PeakFleet {
		t.Fatalf("elastic MinFleet %d != peak %d", v.MinFleet, v.Probes[0].PeakFleet)
	}
	if v.Probes[0].ScaleUps == 0 {
		t.Fatal("elastic probe never scaled up from 1 VM at λ=4")
	}
}

// TestReplayCommands pins the replay-line formats — they are user-facing
// API printed into failure messages.
func TestReplayCommands(t *testing.T) {
	if got, want := ReplayCommand("specs/peak.json", 7, 12), "cloudsched plan replay -spec specs/peak.json -seed 7 -fleet 12"; got != want {
		t.Fatalf("ReplayCommand = %q, want %q", got, want)
	}
	c := OracleCase{Rho: 0.9, Servers: 4, VMs: 4, N: 60000, Warmup: 10000, Mu: 1, Seed: 1, Tol: 0.15}
	want := "cloudsched plan oracle -rho 0.9 -servers 4 -vms 4 -n 60000 -warmup 10000 -mu 1 -seed 1 -tol 0.15"
	if got := c.ReplayCommand(); got != want {
		t.Fatalf("OracleCase.ReplayCommand = %q, want %q", got, want)
	}
}

// TestOracleCaseValidate covers the oracle guard rails.
func TestOracleCaseValidate(t *testing.T) {
	good := OracleCase{Rho: 0.5, Servers: 4, VMs: 2, N: 100, Warmup: 10, Mu: 1, Seed: 1, Tol: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid case rejected: %v", err)
	}
	bads := []OracleCase{
		{Rho: 0, Servers: 1, VMs: 1, N: 100, Mu: 1, Tol: 0.1},
		{Rho: 1, Servers: 1, VMs: 1, N: 100, Mu: 1, Tol: 0.1},
		{Rho: math.NaN(), Servers: 1, VMs: 1, N: 100, Mu: 1, Tol: 0.1},
		{Rho: 0.5, Servers: 3, VMs: 2, N: 100, Mu: 1, Tol: 0.1},
		{Rho: 0.5, Servers: 0, VMs: 1, N: 100, Mu: 1, Tol: 0.1},
		{Rho: 0.5, Servers: 1, VMs: 1, N: 0, Mu: 1, Tol: 0.1},
		{Rho: 0.5, Servers: 1, VMs: 1, N: 100, Warmup: 100, Mu: 1, Tol: 0.1},
		{Rho: 0.5, Servers: 1, VMs: 1, N: 100, Mu: 0, Tol: 0.1},
		{Rho: 0.5, Servers: 1, VMs: 1, N: 100, Mu: 1, Tol: 0},
		{Rho: 0.5, Servers: 1, VMs: 1, N: 100, Mu: math.Inf(1), Tol: 0.1},
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad case %d accepted: %+v", i, c)
		}
	}
	if _, err := (bads[0]).RunOracle(nil); err == nil {
		t.Error("RunOracle on invalid case succeeded")
	}
}
