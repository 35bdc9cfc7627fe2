package objective_test

import (
	"testing"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/objective"
	"bioschedsim/internal/schedtest"
)

// TestCostOfAndMakespanOfEmptyAssignment pins the degenerate assignment
// vector: zero assigned cloudlets must cost nothing and have zero makespan,
// in both the materialized and on-demand storage modes.
func TestCostOfAndMakespanOfEmptyAssignment(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 4, 8, 1)
	for name, opts := range map[string]objective.Options{
		"materialized": {Mode: objective.Materialized, WithCost: true},
		"ondemand":     {Mode: objective.OnDemand},
	} {
		mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, opts)
		if got := mx.CostOf(nil); got != 0 {
			t.Fatalf("%s: CostOf(empty) = %v, want 0", name, got)
		}
		busy := make([]float64, mx.M())
		if got := mx.MakespanOf(nil, busy); got != 0 {
			t.Fatalf("%s: MakespanOf(empty) = %v, want 0", name, got)
		}
	}
}

// TestNormsSingleClassFleet pins Norms on the paper's homogeneous scenario
// (one exec-equivalence class): the gather over the compressed row must
// equal the brute-force flat (i, j) loop bit for bit, in every storage mode,
// including the cost side computed from concrete VMs when the matrix was
// built without cost caching.
func TestNormsSingleClassFleet(t *testing.T) {
	ctx := schedtest.Homogeneous(t, 6, 12, 1)
	var wantTime, wantCost float64
	for _, c := range ctx.Cloudlets {
		for _, vm := range ctx.VMs {
			wantTime += objective.ExecTime(c, vm)
			wantCost += cloud.ProcessingCost(c, vm)
		}
	}
	for name, opts := range map[string]objective.Options{
		"materialized":      {Mode: objective.Materialized, WithCost: true},
		"materialized-time": {Mode: objective.Materialized},
		"ondemand":          {Mode: objective.OnDemand},
	} {
		mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, opts)
		if mx.K() != 1 {
			t.Fatalf("%s: homogeneous fleet has K=%d, want 1", name, mx.K())
		}
		gotTime, gotCost := mx.Norms()
		if bits(gotTime) != bits(wantTime) || bits(gotCost) != bits(wantCost) {
			t.Fatalf("%s: Norms() = (%v, %v), brute force (%v, %v)", name, gotTime, gotCost, wantTime, wantCost)
		}
	}
}

// TestExecByClassVsExecTimeHeterogeneous is the compression regression on a
// heterogeneous fixture: every class representative's cached row entry and
// the ExecTimes row fill must be bit-identical to the per-VM ExecTime of the
// representative — the exact seam a wrong class key or a divergent row loop
// would break.
func TestExecByClassVsExecTimeHeterogeneous(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 7, 21, 2)
	mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{Mode: objective.Materialized})
	classes := objective.ClassesOf(ctx.VMs)
	if classes.K < 2 {
		t.Fatalf("heterogeneous fixture collapsed to %d class(es)", classes.K)
	}
	buf := make([]float64, classes.K)
	for i, c := range ctx.Cloudlets {
		row := classes.ExecTimes(c, buf)
		for cl, rep := range classes.Reps {
			want := objective.ExecTime(c, rep)
			if got := mx.ExecByClass(i, cl); bits(got) != bits(want) {
				t.Fatalf("ExecByClass(%d,%d) = %v, ExecTime of rep = %v", i, cl, got, want)
			}
			if bits(row[cl]) != bits(want) {
				t.Fatalf("ExecTimes(%d)[%d] = %v, ExecTime of rep = %v", i, cl, row[cl], want)
			}
		}
	}
}

// TestMinExecTimeMatchesBruteMin pins Classes.MinExecTime against a direct
// scan over the whole fleet.
func TestMinExecTimeMatchesBruteMin(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 5, 9, 1)
	classes := objective.ClassesOf(ctx.VMs)
	for _, c := range ctx.Cloudlets {
		want := objective.ExecTime(c, ctx.VMs[0])
		for _, vm := range ctx.VMs[1:] {
			if e := objective.ExecTime(c, vm); e < want {
				want = e
			}
		}
		if got := classes.MinExecTime(c); bits(got) != bits(want) {
			t.Fatalf("MinExecTime = %v, brute min %v", got, want)
		}
	}
}
