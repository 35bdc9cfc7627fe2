package check

import (
	"fmt"
	"math"
	"runtime"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/objective"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/sim"
	"bioschedsim/internal/xrand"
)

// OracleTol is the relative tolerance the differential oracle grants the
// class-compressed evaluation layer against the brute-force reference
// executor. The fast path is documented bit-identical for add-only
// evaluation, so 1e-9 is generous.
const OracleTol = 1e-9

// Invariant names, stable API for reports and suppression triage.
const (
	InvConservation     = "conservation"
	InvDeterminism      = "determinism"
	InvPermutation      = "permutation"
	InvWorkerInvariance = "worker-invariance"
	InvShardInvariance  = "shard-invariance"
	InvOracle           = "oracle"
	InvEq12             = "eq12"
	InvEq13             = "eq13"
	InvRejectEmpty      = "reject-empty"
	InvSchedule         = "schedule" // scheduler errored or panicked on a valid scenario
	InvBuild            = "build"    // the harness could not materialize the scenario
)

// Violation is one invariant breach for one (scheduler, scenario) pair.
type Violation struct {
	Invariant string
	Err       error
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("%s: %v", v.Invariant, v.Err)
}

func violationf(inv, format string, args ...any) *Violation {
	return &Violation{Invariant: inv, Err: fmt.Errorf(format, args...)}
}

// safeSchedule runs Schedule converting panics into errors: a panicking
// scheduler must surface as a checkable violation, not kill the harness.
func safeSchedule(s sched.Scheduler, ctx *sched.Context) (as []sched.Assignment, err error) {
	defer func() {
		if r := recover(); r != nil {
			as, err = nil, fmt.Errorf("panic in %s.Schedule: %v", s.Name(), r)
		}
	}()
	return s.Schedule(ctx)
}

// posVector maps an assignment list onto the canonical vector form
// pos[cloudletIndex] = vmIndex. It requires conservation to have been
// validated first (every cloudlet exactly once, every VM in-context).
func posVector(ctx *sched.Context, as []sched.Assignment) ([]int, error) {
	clIdx := make(map[*cloud.Cloudlet]int, len(ctx.Cloudlets))
	for i, c := range ctx.Cloudlets {
		clIdx[c] = i
	}
	vmIdx := make(map[*cloud.VM]int, len(ctx.VMs))
	for j, vm := range ctx.VMs {
		vmIdx[vm] = j
	}
	pos := make([]int, len(ctx.Cloudlets))
	for _, a := range as {
		i, ok := clIdx[a.Cloudlet]
		if !ok {
			return nil, fmt.Errorf("assignment references cloudlet %d outside the context", a.Cloudlet.ID)
		}
		j, ok := vmIdx[a.VM]
		if !ok {
			return nil, fmt.Errorf("assignment references VM %d outside the context", a.VM.ID)
		}
		pos[i] = j
	}
	return pos, nil
}

// CheckScenario builds sc and runs the full invariant suite for the named
// scheduler. It returns nil when every applicable invariant holds.
func CheckScenario(scheduler string, sc Scenario) *Violation {
	b, err := sc.Build()
	if err != nil {
		return violationf(InvBuild, "building %v: %v", sc, err)
	}
	s, err := sched.New(scheduler)
	if err != nil {
		return violationf(InvBuild, "%v", err)
	}

	// Zero-length batches: the only correct response is an error.
	if len(b.Ctx.Cloudlets) == 0 {
		if as, err := safeSchedule(s, b.Ctx); err == nil {
			return violationf(InvRejectEmpty,
				"%s accepted an empty batch and returned %d assignments instead of an error", scheduler, len(as))
		}
		return nil
	}

	as, err := safeSchedule(s, b.Ctx)
	if err != nil {
		return violationf(InvSchedule, "%s failed on a valid scenario: %v", scheduler, err)
	}

	// Conservation: each cloudlet exactly once, only in-context VMs.
	if err := sched.ValidateAssignments(b.Ctx, as); err != nil {
		return violationf(InvConservation, "%v", err)
	}
	pos, err := posVector(b.Ctx, as)
	if err != nil {
		return violationf(InvConservation, "%v", err)
	}

	if v := checkDeterminism(scheduler, sc, pos); v != nil {
		return v
	}
	if v := checkWorkerInvariance(scheduler, sc, pos); v != nil {
		return v
	}
	if v := checkPermutation(scheduler, sc, b, as); v != nil {
		return v
	}
	if v := checkOracle(b, as, pos); v != nil {
		return v
	}
	if v := checkExecution(sc, b, as); v != nil {
		return v
	}
	return checkShardInvariance(sc, pos)
}

// checkDeterminism rebuilds the scenario from its seed and re-schedules
// with a fresh scheduler instance: the assignment vector must be identical.
func checkDeterminism(scheduler string, sc Scenario, pos []int) *Violation {
	b2, err := sc.Build()
	if err != nil {
		return violationf(InvBuild, "rebuilding %v: %v", sc, err)
	}
	s2, err := sched.New(scheduler)
	if err != nil {
		return violationf(InvBuild, "%v", err)
	}
	as2, err := safeSchedule(s2, b2.Ctx)
	if err != nil {
		return violationf(InvDeterminism, "%s failed on the re-run of the same seed: %v", scheduler, err)
	}
	if err := sched.ValidateAssignments(b2.Ctx, as2); err != nil {
		return violationf(InvDeterminism, "re-run produced invalid assignments: %v", err)
	}
	pos2, err := posVector(b2.Ctx, as2)
	if err != nil {
		return violationf(InvDeterminism, "%v", err)
	}
	for i := range pos {
		if pos[i] != pos2[i] {
			return violationf(InvDeterminism,
				"same seed produced different assignments: cloudlet %d went to VM %d, then VM %d", i, pos[i], pos2[i])
		}
	}
	return nil
}

// checkWorkerInvariance holds every scheduler to the pool contract: a
// parallel section's width is GOMAXPROCS (serial below its work threshold)
// and moves only the wall clock, never a placement. The same seeded scenario
// re-run at GOMAXPROCS ∈ {1, 2, P}, P being the campaign's own setting, must
// reproduce the baseline; P is restored afterwards. GOMAXPROCS is
// process-wide, which is why the campaign runs on one goroutine. A kernel
// fans out only above its threshold (ACO's 2^12 cloudlet×VM cells, 2^15 for
// the HBO/RBS/GA pools), so at the -quick caps this re-run is a determinism
// check; larger caps are what make it engage a real pool.
func checkWorkerInvariance(scheduler string, sc Scenario, want []int) *Violation {
	p := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(p)
	procs := []int{1, 2}
	if p > 2 {
		procs = append(procs, p)
	}
	for _, w := range procs {
		runtime.GOMAXPROCS(w)
		s, err := sched.New(scheduler)
		if err != nil {
			return violationf(InvBuild, "%v", err)
		}
		bw, err := sc.Build()
		if err != nil {
			return violationf(InvBuild, "rebuilding %v: %v", sc, err)
		}
		as, err := safeSchedule(s, bw.Ctx)
		if err != nil {
			return violationf(InvWorkerInvariance, "%s failed at GOMAXPROCS=%d: %v", scheduler, w, err)
		}
		if err := sched.ValidateAssignments(bw.Ctx, as); err != nil {
			return violationf(InvWorkerInvariance, "GOMAXPROCS=%d produced invalid assignments: %v", w, err)
		}
		pos, err := posVector(bw.Ctx, as)
		if err != nil {
			return violationf(InvWorkerInvariance, "%v", err)
		}
		for i := range want {
			if pos[i] != want[i] {
				return violationf(InvWorkerInvariance,
					"%s diverged at GOMAXPROCS=%d: cloudlet %d went to VM %d, baseline chose VM %d",
					scheduler, w, i, pos[i], want[i])
			}
		}
	}
	return nil
}

// checkPermutation verifies the declared permutation-invariance trait:
// on identical-cloudlet workloads, shuffling submission order must leave
// the estimated makespan unchanged.
func checkPermutation(scheduler string, sc Scenario, b *Built, as []sched.Assignment) *Violation {
	tr, ok := sched.TraitsOf(scheduler)
	if !ok || !tr.PermutationInvariant || !b.Identical || len(b.Ctx.Cloudlets) < 2 {
		return nil
	}
	b3, err := sc.Build()
	if err != nil {
		return violationf(InvBuild, "rebuilding %v: %v", sc, err)
	}
	// Shuffle the submission order on an independent stream so the
	// scheduler's own ctx.Rand draws stay untouched.
	perm := xrand.New(sc.Seed, 7)
	perm.Shuffle(len(b3.Ctx.Cloudlets), func(i, j int) {
		b3.Ctx.Cloudlets[i], b3.Ctx.Cloudlets[j] = b3.Ctx.Cloudlets[j], b3.Ctx.Cloudlets[i]
	})
	s3, err := sched.New(scheduler)
	if err != nil {
		return violationf(InvBuild, "%v", err)
	}
	as3, err := safeSchedule(s3, b3.Ctx)
	if err != nil {
		return violationf(InvPermutation, "%s failed on the permuted batch: %v", scheduler, err)
	}
	if err := sched.ValidateAssignments(b3.Ctx, as3); err != nil {
		return violationf(InvPermutation, "permuted batch produced invalid assignments: %v", err)
	}
	mk, mk3 := sched.EstimatedMakespan(as), sched.EstimatedMakespan(as3)
	if d := relDiff(mk, mk3); d > OracleTol {
		return violationf(InvPermutation,
			"%s declares permutation invariance but makespan moved %v → %v (rel %.3g) under cloudlet-order permutation",
			scheduler, mk, mk3, d)
	}
	return nil
}

// checkOracle runs the differential oracle: the class-compressed Matrix and
// Evaluator hot path must agree with the straight-line reference executor,
// and the scheduler-facing helper must agree with both.
func checkOracle(b *Built, as []sched.Assignment, pos []int) *Violation {
	mx := objective.NewMatrix(b.Ctx.Cloudlets, b.Ctx.VMs, objective.Options{WithCost: true})
	if err := objective.VerifyAgainstReference(mx, pos, OracleTol); err != nil {
		return violationf(InvOracle, "%v", err)
	}
	ref := objective.ReferenceMakespan(b.Ctx.Cloudlets, b.Ctx.VMs, pos)
	if est := sched.EstimatedMakespan(as); relDiff(est, ref) > OracleTol {
		return violationf(InvOracle,
			"sched.EstimatedMakespan %v diverges from reference %v", est, ref)
	}
	return nil
}

// checkExecution drives the assignment through the simulator and asserts
// the measurement invariants: every cloudlet finishes with sane timestamps,
// Eq. 12's simulated makespan matches an independent recomputation, and
// Eq. 13's imbalance metrics are finite and non-negative.
func checkExecution(sc Scenario, b *Built, as []sched.Assignment) *Violation {
	cls, vms := sched.Split(as)
	var finished []*cloud.Cloudlet
	if b.Arrivals == nil {
		res, err := cloud.Execute(b.Env, cloud.TimeSharedFactory, cls, vms)
		if err != nil {
			return violationf(InvEq12, "execution failed: %v", err)
		}
		finished = res.Finished
		// Eq. 12 as the broker computed it must match the metrics package's
		// independent pass over the same cloudlets.
		if d := relDiff(float64(res.SimulationTime()), float64(metrics.SimulationTime(finished))); d > 0 {
			return violationf(InvEq12, "broker Eq.12 %v != metrics Eq.12 %v",
				res.SimulationTime(), metrics.SimulationTime(finished))
		}
	} else {
		var v *Violation
		finished, v = executeWithArrivals(sc, b, as)
		if v != nil {
			return v
		}
	}

	if len(finished) != len(cls) {
		return violationf(InvEq12, "%d of %d cloudlets finished", len(finished), len(cls))
	}
	var minStart, maxFinish sim.Time
	perVM := make(map[*cloud.VM]sim.Time, len(b.Ctx.VMs))
	for i, c := range finished {
		if c.Status != cloud.CloudletFinished {
			return violationf(InvEq12, "cloudlet %d reported finished with status %v", c.ID, c.Status)
		}
		if c.StartTime < c.SubmitTime || c.FinishTime < c.StartTime || c.SubmitTime < 0 {
			return violationf(InvEq12, "cloudlet %d has inconsistent timestamps submit=%v start=%v finish=%v",
				c.ID, c.SubmitTime, c.StartTime, c.FinishTime)
		}
		if c.VM == nil {
			return violationf(InvEq12, "finished cloudlet %d has no recorded VM", c.ID)
		}
		if i == 0 || c.StartTime < minStart {
			minStart = c.StartTime
		}
		if c.FinishTime > maxFinish {
			maxFinish = c.FinishTime
		}
		if c.FinishTime > perVM[c.VM] {
			perVM[c.VM] = c.FinishTime
		}
	}
	// Eq. 12's TmaxFinishTime recomputed independently as the max per-VM
	// finish time must equal the global maximum.
	var perVMMax sim.Time
	for _, t := range perVM {
		if t > perVMMax {
			perVMMax = t
		}
	}
	if d := relDiff(float64(perVMMax), float64(maxFinish)); d > 0 {
		return violationf(InvEq12, "max per-VM finish %v != global max finish %v", perVMMax, maxFinish)
	}
	if d := relDiff(float64(metrics.SimulationTime(finished)), float64(maxFinish-minStart)); d > 0 {
		return violationf(InvEq12, "metrics Eq.12 %v != recomputed span %v",
			metrics.SimulationTime(finished), maxFinish-minStart)
	}

	for name, imb := range map[string]float64{
		"time imbalance (Eq.13)": metrics.TimeImbalance(finished),
		"count imbalance":        metrics.CountImbalance(finished, b.Ctx.VMs),
	} {
		if math.IsNaN(imb) || math.IsInf(imb, 0) || imb < 0 {
			return violationf(InvEq13, "%s = %v, want finite and non-negative", name, imb)
		}
	}
	return nil
}

// executeWithArrivals replays the assignment with the scenario's staggered
// arrival offsets (per cloudlet index, not per assignment position).
func executeWithArrivals(sc Scenario, b *Built, as []sched.Assignment) ([]*cloud.Cloudlet, *Violation) {
	if err := b.Env.Validate(); err != nil {
		return nil, violationf(InvBuild, "environment invalid: %v", err)
	}
	clIdx := make(map[*cloud.Cloudlet]int, len(b.Ctx.Cloudlets))
	for i, c := range b.Ctx.Cloudlets {
		clIdx[c] = i
	}
	cls, vms := sched.Split(as)
	arrivals := make([]sim.Time, len(as))
	for i, c := range cls {
		arrivals[i] = b.Arrivals[clIdx[c]]
	}
	eng := sim.NewEngine()
	broker := cloud.NewBroker(eng, b.Env, cloud.TimeSharedFactory)
	if err := broker.SubmitAllSchedule(cls, vms, arrivals); err != nil {
		return nil, violationf(InvEq12, "staged submission failed: %v", err)
	}
	eng.Run()
	if got := len(broker.Finished()); got != len(cls) {
		return nil, violationf(InvEq12, "%d of %d cloudlets finished after burst run (scenario %v)", got, len(cls), sc)
	}
	return broker.Finished(), nil
}
