package objective_test

import (
	"math/rand"
	"runtime"
	"testing"

	"bioschedsim/internal/objective"
	"bioschedsim/internal/schedtest"
)

// randomPop draws pop random assignment vectors for the context.
func randomPop(ctx *testingContext, pop int, seed int64) [][]int {
	rnd := rand.New(rand.NewSource(seed))
	out := make([][]int, pop)
	for p := range out {
		v := make([]int, ctx.n)
		for i := range v {
			v[i] = rnd.Intn(ctx.m)
		}
		out[p] = v
	}
	return out
}

type testingContext struct {
	mx   *objective.Matrix
	n, m int
}

func newTestingContext(t *testing.T) *testingContext {
	ctx := schedtest.Heterogeneous(t, 30, 300, 21)
	mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{})
	return &testingContext{mx: mx, n: len(ctx.Cloudlets), m: len(ctx.VMs)}
}

// TestPopEvaluatorDeterminism is the determinism contract of the parallel
// evaluator: for a fixed population, fitness vectors are byte-identical and
// the best individual is the same at every GOMAXPROCS. The population is
// large enough (300·200 items×genes) to clear the serial threshold, so the
// multi-worker runs genuinely race goroutines over the shared cursor.
func TestPopEvaluatorDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tc := newTestingContext(t)
	pop := randomPop(tc, 200, 22)
	ref := make([]float64, len(pop))
	objective.NewPopEvaluator(tc.mx, nil).Eval(pop, ref)
	argmin := func(v []float64) int {
		best := 0
		for i := range v {
			if v[i] < v[best] {
				best = i
			}
		}
		return best
	}
	// The serial reference must agree with direct evaluation.
	busy := make([]float64, tc.m)
	for p := range pop {
		if bits(ref[p]) != bits(tc.mx.MakespanOf(pop[p], busy)) {
			t.Fatalf("serial fitness %d disagrees with direct evaluation", p)
		}
	}
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		got := make([]float64, len(pop))
		objective.NewPopEvaluator(tc.mx, objective.Makespan).Eval(pop, got)
		for p := range pop {
			if bits(got[p]) != bits(ref[p]) {
				t.Fatalf("GOMAXPROCS=%d: fitness[%d]=%v differs from serial %v", procs, p, got[p], ref[p])
			}
		}
		if a, b := argmin(got), argmin(ref); a != b {
			t.Fatalf("GOMAXPROCS=%d: best individual %d differs from serial %d", procs, a, b)
		}
	}
}

func TestPopEvaluatorSmallAndEmpty(t *testing.T) {
	tc := newTestingContext(t)
	pe := objective.NewPopEvaluator(tc.mx, nil)
	pe.Eval(nil, nil)           // empty population: no-op
	pop := randomPop(tc, 3, 23) // below the serial threshold
	out := make([]float64, len(pop))
	pe.Eval(pop, out)
	busy := make([]float64, tc.m)
	for p := range pop {
		if bits(out[p]) != bits(tc.mx.MakespanOf(pop[p], busy)) {
			t.Fatalf("small-batch fitness %d mismatch", p)
		}
	}
}
