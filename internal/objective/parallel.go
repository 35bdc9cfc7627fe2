package objective

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// FitnessFunc scores one assignment vector. busy is per-worker scratch of
// length ≥ M(); implementations must not retain it. It must be pure: the
// score may depend only on (mx, pos), never on evaluation order — that is
// what makes parallel evaluation deterministic.
type FitnessFunc func(mx *Matrix, pos []int, busy []float64) float64

// Makespan is the default FitnessFunc: Eq. 8's estimated makespan.
func Makespan(mx *Matrix, pos []int, busy []float64) float64 {
	return mx.MakespanOf(pos, busy)
}

// minParallelWork is the population-size × problem-size product below which
// PopEvaluator stays serial: goroutine dispatch costs more than it saves on
// small batches, and serial evaluation is trivially deterministic.
const minParallelWork = 1 << 15

// EffectiveWorkers sizes the pool for one parallel section from the
// approximate scalar work it carries: GOMAXPROCS, or one worker below
// minWork — goroutine dispatch costs more than it saves there, and the
// determinism contract makes the serial and parallel results identical
// anyway, so the cutover is invisible. minWork ≤ 0 selects the package
// default break-even point. Nothing outside the runtime sets the width.
func EffectiveWorkers(work, minWork int64) int {
	if minWork <= 0 {
		minWork = minParallelWork
	}
	if work < minWork {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelFor runs fn(i) for every i in [0, items) across up to workers
// goroutines (≤ 1 means serial; size the pool with EffectiveWorkers) and
// returns after all iterations complete. It is the shared fan-out
// primitive: iterations must be independent — fn(i) may write only state owned by
// iteration i — which is exactly what makes results bit-identical for every
// worker count. Work is claimed off an atomic cursor in contiguous chunks,
// so interleaving reorders the wall clock, never the outputs.
func ParallelFor(workers, items int, fn func(i int)) {
	if items <= 0 {
		return
	}
	if workers > items {
		workers = items
	}
	if workers <= 1 {
		for i := 0; i < items; i++ {
			fn(i)
		}
		return
	}
	chunk := items / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= items {
					return
				}
				hi := lo + chunk
				if hi > items {
					hi = items
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// PopEvaluator evaluates populations of assignment vectors on a bounded
// worker pool with a hard determinism contract: for a fixed matrix, fitness
// function, and population, the output fitness vector is byte-identical for
// every worker count (1, 2, 8, …). Each individual is scored independently
// into its own output slot by a pure function, so worker interleaving can
// reorder the work but never the results — the same contract
// internal/experiments guarantees for parameter sweeps.
type PopEvaluator struct {
	// Mx is the evaluation matrix.
	Mx *Matrix
	// Fitness scores one individual; nil means Makespan.
	Fitness FitnessFunc

	scratch sync.Pool
}

// NewPopEvaluator returns a population evaluator over mx.
func NewPopEvaluator(mx *Matrix, fitness FitnessFunc) *PopEvaluator {
	return &PopEvaluator{Mx: mx, Fitness: fitness}
}

// Eval scores every individual of pop into out (len(out) ≥ len(pop)).
// out[i] depends only on pop[i]; worker count never changes any value.
func (p *PopEvaluator) Eval(pop [][]int, out []float64) {
	fitness := p.Fitness
	if fitness == nil {
		fitness = Makespan
	}
	p.run(len(pop), func(i int, busy []float64) {
		out[i] = fitness(p.Mx, pop[i], busy)
	})
}

// run executes fn(i) for i in [0, items) on the bounded pool. Each worker
// owns one scratch buffer; items are claimed from an atomic cursor.
func (p *PopEvaluator) run(items int, fn func(i int, busy []float64)) {
	if items == 0 {
		return
	}
	workers := min(EffectiveWorkers(int64(items)*int64(p.Mx.n), minParallelWork), items)
	if workers == 1 {
		busy := p.getScratch()
		for i := 0; i < items; i++ {
			fn(i, busy)
		}
		p.scratch.Put(&busy)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			busy := p.getScratch()
			defer p.scratch.Put(&busy)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= items {
					return
				}
				fn(i, busy)
			}
		}()
	}
	wg.Wait()
}

func (p *PopEvaluator) getScratch() []float64 {
	if b, ok := p.scratch.Get().(*[]float64); ok && len(*b) >= p.Mx.m {
		return *b
	}
	return make([]float64, p.Mx.m)
}
