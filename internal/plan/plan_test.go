package plan

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"bioschedsim/internal/xrand"
)

// readmePeakSpec is the README's "Capacity planning" example, peak.json.
const readmePeakSpec = `{
  "name": "checkout-peak",
  "workload": {"process": "poisson", "rate": 8, "cloudlets": 2000,
               "warmup": 200, "mean_length_mi": 1000},
  "fleet": {"vm_mips": 1000, "vm_pes": 1, "min_vms": 1, "max_vms": 32,
            "dispatch": "queue"},
  "slo": {"quantile": 0.95, "target_seconds": 4},
  "seed": 7
}`

// bisectPlan is the search Plan used before the quantile-steered one, kept
// as the reference it is compared against: probe MaxVMs, and if that meets
// the SLO bisect [MinVMs, MaxVMs] on each probe's met/miss bit.
func bisectPlan(t testing.TB, spec *Spec) *Verdict {
	t.Helper()
	v := &Verdict{Spec: spec}
	proc, err := spec.Workload.Arrivals()
	if err != nil {
		t.Fatal(err)
	}
	w, err := draw(spec, proc)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := spec.Fleet.MinVMs, spec.Fleet.MaxVMs
	met, err := v.probe(w, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !met {
		return v
	}
	v.Sustainable = true
	for lo < hi {
		mid := lo + (hi-lo)/2
		met, err := v.probe(w, mid)
		if err != nil {
			t.Fatal(err)
		}
		if met {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	v.MinFleet = lo
	return v
}

// probeBound is the most probes a static verdict may take: twice
// bisection's depth over the fleet range, plus two.
func probeBound(spec *Spec) int {
	n := spec.Fleet.MaxVMs - spec.Fleet.MinVMs + 1
	return 2*bits.Len(uint(n-1)) + 2 // bits.Len(n−1) = ⌈log₂ n⌉
}

// checkMonotoneVerdict requires every probe at or above MinFleet to have
// met the SLO and every probe below it to have missed (all of them, when
// the verdict is unsustainable).
func checkMonotoneVerdict(t *testing.T, name string, v *Verdict) {
	t.Helper()
	for _, p := range v.Probes {
		if want := v.Sustainable && p.Fleet >= v.MinFleet; p.Met != want {
			t.Errorf("%s: probe at %d VMs met=%v, MinFleet %d sustainable=%v", name, p.Fleet, p.Met, v.MinFleet, v.Sustainable)
		}
	}
}

// checkBoundary requires MinFleet to have been probed and met, and
// MinFleet−1 to have been probed and missed unless MinFleet is MinVMs;
// for an unsustainable verdict, MaxVMs probed and missed.
func checkBoundary(t *testing.T, name string, v *Verdict) {
	t.Helper()
	met := map[int]bool{}
	for _, p := range v.Probes {
		if _, dup := met[p.Fleet]; dup {
			t.Errorf("%s: fleet %d probed twice", name, p.Fleet)
		}
		met[p.Fleet] = p.Met
	}
	f := v.Spec.Fleet
	if !v.Sustainable {
		if m, ok := met[f.MaxVMs]; !ok || m || v.MinFleet != 0 {
			t.Errorf("%s: unsustainable verdict (MinFleet %d) without a missed probe at MaxVMs %d", name, v.MinFleet, f.MaxVMs)
		}
		return
	}
	if m, ok := met[v.MinFleet]; !ok || !m {
		t.Errorf("%s: MinFleet %d not probed and met", name, v.MinFleet)
	}
	if m, ok := met[v.MinFleet-1]; v.MinFleet > f.MinVMs && (!ok || m) {
		t.Errorf("%s: MinFleet−1 = %d not probed and missed", name, v.MinFleet-1)
	}
}

// randomPlanSpec draws a small static spec whose ρ = 1 point falls in or
// beyond a fleet range of at most 64 VMs, with an SLO target from below
// the service-time quantile (unreachable at any fleet) to well above it.
func randomPlanSpec(i int, dispatch string) *Spec {
	r := xrand.New(uint64(i)+1, 77)
	pes := 1 + r.Intn(4)
	mips := []float64{500, 1000, 2000}[r.Intn(3)]
	maxVMs := 1 + r.Intn(64)
	minVMs := 1
	if r.Intn(4) == 0 {
		minVMs += r.Intn(1 + maxVMs/2)
	}
	mu := mips / 1000
	// Offered load in VMs, up to 1.2× the largest fleet.
	rate := (0.3 + r.Float64()*1.2*float64(maxVMs)) * mu * float64(pes)
	n := 300 + r.Intn(1701)
	spec := &Spec{
		Name: fmt.Sprintf("random-%d", i),
		Workload: WorkloadSpec{
			Cloudlets: n, Warmup: n / 10, MeanLengthMI: 1000,
		},
		Fleet: FleetSpec{VMMips: mips, VMPes: pes, MinVMs: minVMs, MaxVMs: maxVMs, Dispatch: dispatch},
		Seed:  uint64(i)*7919 + 3,
	}
	switch r.Intn(3) {
	case 0:
		spec.Workload.Process, spec.Workload.Rate = "poisson", rate
	case 1:
		// Calm at half the mean, bursts at three times the calm rate.
		spec.Workload.Process = "mmpp"
		spec.Workload.RateA, spec.Workload.RateB = rate/2, 1.5*rate
		spec.Workload.SojournA, spec.Workload.SojournB = 1+r.Float64()*5, 0.2+r.Float64()
	default:
		spec.Workload.Process = "diurnal"
		spec.Workload.BaseRate, spec.Workload.Amplitude = rate, 0.2+0.6*r.Float64()
		spec.Workload.Period = 2 + r.Float64()*20
	}
	q := []float64{0.5, 0.9, 0.95, 0.99}[r.Intn(4)]
	serviceQ := -math.Log(1-q) / mu
	spec.SLO = SLOSpec{Quantile: q, TargetSeconds: serviceQ * (0.8 + 2.2*r.Float64())}
	return spec
}

// TestPlanSearchMatchesBisection holds Plan's quantile-steered search to
// the bisection it replaced. Under queue dispatch the passing region is an
// up-set, so the two must agree on Sustainable and MinFleet, and every
// probe of either must be consistent with that answer; every verdict must
// also stay within probeBound, the perfbench spec within 6 probes, and all
// of them together within three quarters of bisection's probes. Spread
// dispatch is not monotone, so there only the boundary bisection
// guarantees is required.
func TestPlanSearchMatchesBisection(t *testing.T) {
	var specs []*Spec
	var names []string
	for _, named := range []struct{ name, doc string }{
		{"validSpecJSON", validSpecJSON}, {"readme peak.json", readmePeakSpec}, {"perfbench seed 1", perfbenchSpec},
	} {
		spec, err := ParseSpec([]byte(named.doc))
		if err != nil {
			t.Fatalf("%s: %v", named.name, err)
		}
		specs, names = append(specs, spec), append(names, named.name)
	}
	for i := 0; i < 240; i++ {
		spec := randomPlanSpec(i, DispatchQueue)
		if err := spec.Validate(); err != nil {
			t.Fatalf("random spec %d: %v", i, err)
		}
		specs, names = append(specs, spec), append(names, spec.Name)
	}

	unsustainable, searched, bisected := 0, 0, 0
	for k, spec := range specs {
		name := names[k]
		got, err := Plan(spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := bisectPlan(t, spec)
		if got.Sustainable != want.Sustainable || got.MinFleet != want.MinFleet {
			t.Errorf("%s: search says sustainable=%v MinFleet %d (probes %v), bisection sustainable=%v MinFleet %d",
				name, got.Sustainable, got.MinFleet, fleets(got), want.Sustainable, want.MinFleet)
		}
		checkMonotoneVerdict(t, name, got)
		checkMonotoneVerdict(t, name+" (bisection)", want)
		checkBoundary(t, name, got)
		if len(got.Probes) > probeBound(spec) {
			t.Errorf("%s: %d probes %v, bound %d", name, len(got.Probes), fleets(got), probeBound(spec))
		}
		if name == "perfbench seed 1" && len(got.Probes) > 6 {
			t.Errorf("%s: %d probes %v, want at most 6", name, len(got.Probes), fleets(got))
		}
		if !got.Sustainable {
			unsustainable++
		}
		searched += len(got.Probes)
		bisected += len(want.Probes)
	}
	if unsustainable < 10 || unsustainable > len(specs)-10 {
		t.Fatalf("%d of %d specs unsustainable; the random specs should cover both verdicts", unsustainable, len(specs))
	}
	t.Logf("%d queue specs: %d probes searched, %d bisected", len(specs), searched, bisected)
	if 4*searched > 3*bisected {
		t.Errorf("search took %d probes over %d queue specs, bisection %d; want at most three quarters", searched, len(specs), bisected)
	}

	for i := 0; i < 60; i++ {
		spec := randomPlanSpec(1000+i, DispatchSpread)
		v, err := Plan(spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		checkBoundary(t, spec.Name+" (spread)", v)
		if len(v.Probes) > probeBound(spec) {
			t.Errorf("%s (spread): %d probes %v, bound %d", spec.Name, len(v.Probes), fleets(v), probeBound(spec))
		}
	}
}

func fleets(v *Verdict) []int {
	out := make([]int, len(v.Probes))
	for i, p := range v.Probes {
		out[i] = p.Fleet
	}
	return out
}

// TestPlanUnmeetableGallopsToMax covers an SLO no fleet can meet whose ρ = 1
// point lies inside the fleet range: a p99 target of 2 s is below the
// exponential service time's own p99 (ln 100 ≈ 4.6 s at μ = 1), so the
// search must climb to MaxVMs and report the spec unsustainable.
func TestPlanUnmeetableGallopsToMax(t *testing.T) {
	spec, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec.SLO.TargetSeconds = 2
	v, err := Plan(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Sustainable || v.MinFleet != 0 {
		t.Fatalf("unmeetable SLO judged sustainable: MinFleet %d, probes %v", v.MinFleet, fleets(v))
	}
	last := v.Probes[len(v.Probes)-1]
	if v.Probes[0].Fleet >= spec.Fleet.MaxVMs || last.Fleet != spec.Fleet.MaxVMs || last.Met {
		t.Fatalf("search did not start below MaxVMs and end on a missed probe at it: %v", fleets(v))
	}
	if len(v.Probes) > probeBound(spec) {
		t.Fatalf("%d probes %v, bound %d", len(v.Probes), fleets(v), probeBound(spec))
	}
}

// TestPlanRejectsSharedRecorder: a Recorder in RunOptions would collect
// every probe's samples, so Plan refuses it; a Process alone is fine.
func TestPlanRejectsSharedRecorder(t *testing.T) {
	spec, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Plan(spec, &RunOptions{Recorder: NewLatencyStats()}); err == nil {
		t.Fatal("Plan accepted a recorder shared by all its probes")
	}
	proc, err := spec.Workload.Arrivals()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Plan(spec, &RunOptions{Process: proc})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Plan(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.MinFleet != want.MinFleet || len(got.Probes) != len(want.Probes) {
		t.Fatalf("Plan with the spec's own process: MinFleet %d over %d probes, without %d over %d",
			got.MinFleet, len(got.Probes), want.MinFleet, len(want.Probes))
	}
}

// TestPlanSearchAdversarialCurves drives the search with synthetic latency
// curves instead of simulations, from every first probe in [1, 1024]: a
// step, on which no interpolation helps, and two curves that reach the
// target tangentially, from below and from above, so that each estimate
// falls a little short of the crossing and unguarded steering creeps
// toward it a few VMs at a time. The search must land on the smallest
// meeting fleet, found by a scan, within three times bisection's depth
// plus two.
func TestPlanSearchAdversarialCurves(t *testing.T) {
	const n, cross = 1024, 500.63
	// speed is 1/latency in units of 1/TargetSeconds: ≥ 1 meets the SLO.
	curves := []struct {
		name  string
		speed func(c float64) float64
	}{
		{"step", func(c float64) float64 {
			if c >= 517 {
				return 2
			}
			return 0.5
		}},
		{"tangent from below", func(c float64) float64 {
			if c < cross {
				return math.Max(0.01, 1-math.Pow((cross-c)/cross, 8))
			}
			return 1 + (c-cross)/10
		}},
		{"tangent from above", func(c float64) float64 {
			if c > cross {
				return 1 + math.Pow((c-cross)/(n-cross), 8)
			}
			return math.Max(0.01, 1-(cross-c)/10)
		}},
	}
	spec := &Spec{Fleet: FleetSpec{MinVMs: 1, MaxVMs: n}, SLO: SLOSpec{Quantile: 0.99, TargetSeconds: 1}}
	bound := 3*bits.Len(n-1) + 2
	for _, cv := range curves {
		latency := func(fleet int) float64 { return 1 / cv.speed(float64(fleet)) }
		want := 1
		for latency(want) > 1 {
			want++
		}
		for c0 := 1; c0 <= n; c0++ {
			v := &Verdict{Spec: spec}
			err := v.search(c0, func(fleet int) (bool, error) {
				q := latency(fleet)
				v.Probes = append(v.Probes, Probe{Fleet: fleet, QuantileValue: q, Met: q <= 1})
				return q <= 1, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !v.Sustainable || v.MinFleet != want || len(v.Probes) > bound {
				t.Fatalf("%s from %d: MinFleet %d (want %d) after %d probes (bound %d): %v",
					cv.name, c0, v.MinFleet, want, len(v.Probes), bound, fleets(v))
			}
		}
	}
}

// TestPlanProbesMatchRun: a verdict draws its workload once and measures
// every probe on that draw, so each probe must be what a fresh Run at its
// fleet measures, mean wait and quantile bit for bit. It covers the
// perfbench spec, random queue specs with multi-PE VMs, an arrival process
// whose offsets come out unsorted, random spread specs and an elastic
// spec. A probe that wrote into the shared draw, or a recorder carried
// from one probe to the next, would pass the first probe and fail a later
// one.
func TestPlanProbesMatchRun(t *testing.T) {
	type tc struct {
		name string
		spec *Spec
		opts *RunOptions
	}
	var cases []tc
	perf, err := ParseSpec([]byte(perfbenchSpec))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"perfbench seed 1", perf, nil})
	for i, multiPE := 0, 0; multiPE < 20; i++ {
		if spec := randomPlanSpec(i, DispatchQueue); spec.Fleet.VMPes > 1 {
			cases = append(cases, tc{spec.Name, spec, nil})
			multiPE++
		}
	}

	shuffled, err := ParseSpec([]byte(saturated3peSpec))
	if err != nil {
		t.Fatal(err)
	}
	shuffled.Workload.Cloudlets, shuffled.Workload.Warmup = 3000, 300
	arrivals, err := shuffled.Workload.Arrivals()
	if err != nil {
		t.Fatal(err)
	}
	offsets, err := arrivals.Offsets(shuffled.Workload.Cloudlets, shuffled.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(5)).Shuffle(len(offsets), func(i, j int) { offsets[i], offsets[j] = offsets[j], offsets[i] })
	if slices.IsSorted(offsets) {
		t.Fatal("shuffled offsets came out sorted")
	}
	// fixedOffsets reports rate 1, so c₀ starts the search at 1 VM.
	cases = append(cases, tc{"shuffled offsets", shuffled, &RunOptions{Process: fixedOffsets(offsets)}})

	for i := 0; i < 20; i++ {
		spec := randomPlanSpec(1000+i, DispatchSpread)
		cases = append(cases, tc{spec.Name + " (spread)", spec, nil})
	}
	elastic, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	elastic.Workload.Rate, elastic.Workload.Cloudlets, elastic.Workload.Warmup = 6, 3000, 300
	elastic.Fleet.MinVMs, elastic.Fleet.MaxVMs = 1, 16
	elastic.Elastic = &ElasticSpec{ScaleUpLoad: 3, ScaleDownLoad: 0.5, Interval: 5}
	cases = append(cases, tc{"elastic", elastic, nil})

	probes, multi := 0, 0
	for _, c := range cases {
		v, err := Plan(c.spec, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(v.Probes) > 1 {
			multi++
		}
		for k, p := range v.Probes {
			res, err := Run(c.spec, p.Fleet, c.opts)
			if err != nil {
				t.Fatalf("%s: Run at %d VMs: %v", c.name, p.Fleet, err)
			}
			want := Probe{
				Fleet:         p.Fleet,
				PeakFleet:     res.PeakFleet,
				Count:         res.Recorder.Count(),
				MeanWait:      res.Recorder.MeanWait(),
				QuantileValue: res.SLOValue(c.spec),
				Met:           res.SLOMet(c.spec),
				ScaleUps:      res.ScaleUps,
				ScaleDowns:    res.ScaleDowns,
			}
			if !sameProbe(p, want) {
				t.Errorf("%s: probe %d at %d VMs is %+v, Run gives %+v", c.name, k, p.Fleet, p, want)
			}
			probes++
		}
	}
	t.Logf("%d verdicts, %d of them of more than one probe, %d probes", len(cases), multi, probes)
	if multi < len(cases)*3/4 {
		t.Fatalf("%d of %d verdicts have more than one probe; too few to show a later probe diverging", multi, len(cases))
	}
}

// sameProbe compares two probes with their float fields by bits, so NaN
// equals NaN and -0 differs from 0.
func sameProbe(a, b Probe) bool {
	if math.Float64bits(a.MeanWait) != math.Float64bits(b.MeanWait) ||
		math.Float64bits(a.QuantileValue) != math.Float64bits(b.QuantileValue) {
		return false
	}
	a.MeanWait, a.QuantileValue, b.MeanWait, b.QuantileValue = 0, 0, 0, 0
	return a == b
}
