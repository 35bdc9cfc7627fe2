package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"bioschedsim/internal/cloud"
)

// done fabricates a finished cloudlet with the given times.
func done(id int, length, start, finish float64, vm *cloud.VM) *cloud.Cloudlet {
	c := cloud.NewCloudlet(id, length, 1, 300, 300)
	c.StartTime = start
	c.FinishTime = finish
	c.Status = cloud.CloudletFinished
	c.VM = vm
	return c
}

func TestSimulationTimeEq12(t *testing.T) {
	cls := []*cloud.Cloudlet{
		done(0, 100, 2, 10, nil),
		done(1, 100, 0, 5, nil),
		done(2, 100, 1, 12, nil),
	}
	// max finish 12 − min start 0 = 12.
	if got := SimulationTime(cls); got != 12 {
		t.Fatalf("Tsim: %v want 12", got)
	}
}

func TestSimulationTimeEmpty(t *testing.T) {
	if SimulationTime(nil) != 0 {
		t.Fatal("empty set should give 0")
	}
}

func TestTimeImbalanceEq13(t *testing.T) {
	cls := []*cloud.Cloudlet{
		done(0, 100, 0, 1, nil), // exec 1
		done(1, 100, 0, 2, nil), // exec 2
		done(2, 100, 0, 3, nil), // exec 3
	}
	// (3−1)/2 = 1.
	if got := TimeImbalance(cls); math.Abs(got-1) > 1e-12 {
		t.Fatalf("imbalance: %v want 1", got)
	}
}

func TestTimeImbalanceUniformIsZero(t *testing.T) {
	cls := []*cloud.Cloudlet{
		done(0, 100, 0, 5, nil),
		done(1, 100, 1, 6, nil),
		done(2, 100, 2, 7, nil),
	}
	if got := TimeImbalance(cls); got != 0 {
		t.Fatalf("imbalance of equal exec times: %v", got)
	}
}

func TestTimeImbalanceDegenerate(t *testing.T) {
	if TimeImbalance(nil) != 0 {
		t.Fatal("empty should be 0")
	}
	zero := []*cloud.Cloudlet{done(0, 100, 5, 5, nil)}
	if TimeImbalance(zero) != 0 {
		t.Fatal("zero-exec-time set should be 0")
	}
}

// TestTimeImbalanceNonNegativeProperty: Eq. 13 is ≥ 0 for any sample.
func TestTimeImbalanceNonNegativeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var cls []*cloud.Cloudlet
		for i, v := range raw {
			e := math.Abs(v)
			if math.IsNaN(e) || math.IsInf(e, 0) {
				e = 1
			}
			cls = append(cls, done(i, 100, 0, e, nil))
		}
		return TimeImbalance(cls) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanExecAndWait(t *testing.T) {
	cls := []*cloud.Cloudlet{
		done(0, 100, 1, 3, nil), // exec 2, wait 1 (submit 0)
		done(1, 100, 3, 7, nil), // exec 4, wait 3
	}
	if got := MeanExecTime(cls); got != 3 {
		t.Fatalf("mean exec: %v", got)
	}
	if got := MeanWaitTime(cls); got != 2 {
		t.Fatalf("mean wait: %v", got)
	}
	if MeanExecTime(nil) != 0 || MeanWaitTime(nil) != 0 {
		t.Fatal("empty means should be 0")
	}
}

func TestJainFairness(t *testing.T) {
	vms := []*cloud.VM{
		cloud.NewVM(0, 1000, 1, 512, 500, 5000),
		cloud.NewVM(1, 1000, 1, 512, 500, 5000),
	}
	even := []*cloud.Cloudlet{
		done(0, 100, 0, 1, vms[0]),
		done(1, 100, 0, 1, vms[1]),
	}
	if got := JainFairness(even, vms); math.Abs(got-1) > 1e-12 {
		t.Fatalf("even fairness: %v want 1", got)
	}
	skew := []*cloud.Cloudlet{
		done(0, 100, 0, 1, vms[0]),
		done(1, 100, 0, 1, vms[0]),
	}
	// All load on 1 of 2 VMs → 1/2.
	if got := JainFairness(skew, vms); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("skewed fairness: %v want 0.5", got)
	}
	if JainFairness(nil, nil) != 0 {
		t.Fatal("no VMs should give 0")
	}
	if JainFairness(nil, vms) != 0 {
		t.Fatal("no load should give 0")
	}
}

func TestCollectAndUnits(t *testing.T) {
	vm := cloud.NewVM(0, 1000, 1, 512, 500, 5000)
	cls := []*cloud.Cloudlet{done(0, 100, 0, 2.5, vm)}
	r := Collect("aco", cls, []*cloud.VM{vm}, 90*time.Minute)
	if r.Algorithm != "aco" || r.Cloudlets != 1 || r.VMs != 1 {
		t.Fatalf("identity fields: %+v", r)
	}
	if r.SimTime != 2.5 {
		t.Fatalf("sim time: %v", r.SimTime)
	}
	if r.SimTimeMillis() != 2500 {
		t.Fatalf("millis: %v", r.SimTimeMillis())
	}
	if r.SchedulingHours() != 1.5 {
		t.Fatalf("hours: %v", r.SchedulingHours())
	}
	if r.SchedulingSeconds() != 5400 {
		t.Fatalf("seconds: %v", r.SchedulingSeconds())
	}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestSLAMetrics(t *testing.T) {
	met := done(0, 100, 0, 5, nil)
	met.Deadline = 10
	missed := done(1, 100, 0, 20, nil)
	missed.Deadline = 10
	free := done(2, 100, 0, 100, nil) // no deadline
	cls := []*cloud.Cloudlet{met, missed, free}

	if got := SLAViolations(cls); got != 1 {
		t.Fatalf("violations: %d", got)
	}
	if got := SLAComplianceRate(cls); got != 0.5 {
		t.Fatalf("compliance: %v", got)
	}
	if got := SLAComplianceRate([]*cloud.Cloudlet{free}); got != 1 {
		t.Fatalf("unconstrained compliance: %v", got)
	}
	if !met.MetDeadline() || missed.MetDeadline() || !free.MetDeadline() {
		t.Fatal("MetDeadline logic wrong")
	}
	// Unfinished constrained cloudlet counts as violation via MetDeadline.
	pending := cloud.NewCloudlet(3, 100, 1, 0, 0)
	pending.Deadline = 10
	if pending.MetDeadline() {
		t.Fatal("unfinished constrained cloudlet should not have met its deadline")
	}
}

func TestProcessingCostDelegates(t *testing.T) {
	host := cloud.NewHost(0, cloud.NewPEs(1, 2000), 1<<16, 1<<20, 1<<30)
	cloud.NewDatacenter(0, "dc", cloud.Characteristics{
		CostPerMemory: 0.05, CostPerStorage: 0.004, CostPerBandwidth: 0.05, CostPerProcessing: 3,
	}, []*cloud.Host{host})
	vm := cloud.NewVM(0, 1000, 1, 512, 500, 5000)
	if err := host.Place(vm); err != nil {
		t.Fatal(err)
	}
	cls := []*cloud.Cloudlet{done(0, 1000, 0, 1, vm)}
	if got, want := ProcessingCost(cls), cloud.TotalProcessingCost(cls); got != want {
		t.Fatalf("cost: %v want %v", got, want)
	}
	if ProcessingCost(cls) <= 0 {
		t.Fatal("cost should be positive")
	}
}

// TestMinMaxSumEdges pins the Eq. 12/13 fold on its edges: min and max are
// seeded from the first element, so a leading NaN poisons both while a later
// one never wins a comparison, and the sum accumulates in slice order.
func TestMinMaxSumEdges(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name          string
		xs            []float64
		min, max, sum float64
	}{
		{"nil", nil, 0, 0, 0},
		{"empty", []float64{}, 0, 0, 0},
		{"single", []float64{5}, 5, 5, 5},
		{"all-equal", []float64{3, 3, 3, 3}, 3, 3, 12},
		{"in-order-sum", []float64{1e16, 1, 1, 1, 1, -1e16}, -1e16, 1e16, 0}, // any regrouping that adds the ones first gives 4
		{"nan-first", []float64{nan, 1, 2}, nan, nan, nan},
		{"nan-later", []float64{2, nan, 1}, 1, 2, nan},
	} {
		min, max, sum := minMaxSum(tc.xs)
		for _, f := range []struct {
			field     string
			got, want float64
		}{{"min", min, tc.min}, {"max", max, tc.max}, {"sum", sum, tc.sum}} {
			if math.IsNaN(f.want) != math.IsNaN(f.got) || (!math.IsNaN(f.want) && math.Float64bits(f.got) != math.Float64bits(f.want)) {
				t.Errorf("%s: %s = %v, want %v", tc.name, f.field, f.got, f.want)
			}
		}
	}
}
