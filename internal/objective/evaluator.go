package objective

import "slices"

// Evaluator maintains the fitness of one assignment under single-cloudlet
// updates. A full evaluation of Eq. 8 is O(n); the Evaluator books per-VM
// load once and then keeps makespan and total cost current through O(1)
// amortized delta updates — the dominant cost in GA mutation, PSO velocity
// updates, ACO tour construction, and list-scheduling heuristics.
//
// Two caveats define the contract:
//
//   - Floating point: delta updates accumulate in move order, so after
//     removals the per-VM sums may differ from a fresh SetAll in the last
//     ulp (float addition is not associative). Add-only usage (SetAll,
//     Assign, tour construction) is bit-identical to the canonical full
//     evaluation.
//   - Makespan is maintained as a running maximum. Additions update it in
//     O(1); removing load from the current argmax VM marks it stale and the
//     next Makespan() call rescans the touched VMs (O(m) worst case, rare
//     in practice).
//
// Evaluator is not safe for concurrent use; PopEvaluator gives each worker
// its own.
type Evaluator struct {
	mx *Matrix

	pos      []int     // cloudlet → VM index (valid where posStamp matches)
	busy     []float64 // estimated busy seconds per VM (valid where stamp matches)
	cost     float64   // summed processing cost of assigned cloudlets
	withCost bool

	// Sparse-reset bookkeeping: busy[j] is only meaningful when
	// stamp[j] == epoch, pos[i] only when posStamp[i] == epoch; Reset bumps
	// the epoch in O(1) instead of zeroing n+m entries, so per-ant tour
	// scoring on huge problems stays proportional to the tour, not the batch.
	stamp    []uint32
	posStamp []uint32
	epoch    uint32
	touched  []int32

	max      float64 // running max over busy
	maxStale bool    // true after load left the argmax VM
}

// NewEvaluator returns an empty evaluator over mx. Track cost only costs
// anything when cloudlets are assigned.
func NewEvaluator(mx *Matrix, withCost bool) *Evaluator {
	return &Evaluator{
		mx:       mx,
		pos:      make([]int, mx.n),
		busy:     make([]float64, mx.m),
		stamp:    make([]uint32, mx.m),
		posStamp: make([]uint32, mx.n),
		withCost: withCost,
		epoch:    1,
	}
}

// Rebind points e at mx and unassigns every cloudlet, reusing e's buffers
// where they are large enough, so a pooled evaluator serves one problem
// after another without allocating. It costs O(n+m).
func (e *Evaluator) Rebind(mx *Matrix) {
	e.mx = mx
	e.pos = slices.Grow(e.pos[:0], mx.n)[:mx.n]
	e.busy = slices.Grow(e.busy[:0], mx.m)[:mx.m]
	e.stamp = slices.Grow(e.stamp[:0], mx.m)[:mx.m]
	e.posStamp = slices.Grow(e.posStamp[:0], mx.n)[:mx.n]
	clear(e.stamp)
	clear(e.posStamp)
	e.epoch = 0
	e.Reset()
}

// Matrix returns the matrix e evaluates against.
func (e *Evaluator) Matrix() *Matrix { return e.mx }

// Reset unassigns every cloudlet in O(1).
func (e *Evaluator) Reset() {
	e.epoch++
	if e.epoch == 0 { // uint32 wrap: stamps are all invalid anyway, restart
		for j := range e.stamp {
			e.stamp[j] = 0
		}
		for i := range e.posStamp {
			e.posStamp[i] = 0
		}
		e.epoch = 1
	}
	e.touched = e.touched[:0]
	e.cost = 0
	e.max = 0
	e.maxStale = false
}

// load returns a pointer to the live busy cell for VM j, zeroing it on
// first touch this epoch.
func (e *Evaluator) load(j int) *float64 {
	if e.stamp[j] != e.epoch {
		e.stamp[j] = e.epoch
		e.busy[j] = 0
		e.touched = append(e.touched, int32(j))
	}
	return &e.busy[j]
}

// Assign books unassigned cloudlet i onto VM j in O(1). For tour
// construction (add-only) this is bit-identical to a final full evaluation.
func (e *Evaluator) Assign(i, j int) {
	if e.posStamp[i] == e.epoch {
		e.Move(i, j)
		return
	}
	e.posStamp[i] = e.epoch
	e.pos[i] = j
	b := e.load(j)
	*b += e.mx.Exec(i, j)
	if *b > e.max {
		e.max = *b
	}
	if e.withCost {
		e.cost += e.mx.Cost(i, j)
	}
}

// Move reassigns cloudlet i to VM j (delta evaluation). Moving to the
// current VM is a no-op. Unassigned cloudlets are simply assigned.
func (e *Evaluator) Move(i, j int) {
	if e.posStamp[i] != e.epoch {
		e.Assign(i, j)
		return
	}
	from := e.pos[i]
	if from == j {
		return
	}
	fb := e.load(from)
	if *fb >= e.max {
		e.maxStale = true // the argmax is about to shrink; recompute lazily
	}
	*fb -= e.mx.Exec(i, from)
	e.pos[i] = j
	b := e.load(j)
	*b += e.mx.Exec(i, j)
	if *b > e.max {
		e.max = *b
	}
	if e.withCost {
		e.cost += e.mx.Cost(i, j) - e.mx.Cost(i, from)
	}
}

// SetAll assigns the whole vector pos at once: a full O(n) evaluation in
// the canonical order (equivalent to Reset followed by Assign for each i).
func (e *Evaluator) SetAll(pos []int) {
	e.Reset()
	for i, j := range pos {
		e.posStamp[i] = e.epoch
		e.pos[i] = j
		b := e.load(j)
		*b += e.mx.Exec(i, j)
		if *b > e.max {
			e.max = *b
		}
		if e.withCost {
			e.cost += e.mx.Cost(i, j)
		}
	}
}

// Assignment returns cloudlet i's current VM index, -1 if unassigned.
func (e *Evaluator) Assignment(i int) int {
	if e.posStamp[i] != e.epoch {
		return -1
	}
	return e.pos[i]
}

// Load returns the estimated busy seconds booked on VM j.
func (e *Evaluator) Load(j int) float64 {
	if e.stamp[j] != e.epoch {
		return 0
	}
	return e.busy[j]
}

// Makespan returns Eq. 8's estimated makespan of the current assignment.
// O(1) unless a removal invalidated the running max, in which case the
// touched VMs are rescanned.
func (e *Evaluator) Makespan() float64 {
	if e.maxStale {
		var max float64
		for _, j := range e.touched {
			if v := e.busy[j]; v > max {
				max = v
			}
		}
		e.max = max
		e.maxStale = false
	}
	return e.max
}

// TotalCost returns the summed §VI-C-4 processing cost of the current
// assignment. The evaluator must have been built with withCost.
func (e *Evaluator) TotalCost() float64 {
	if !e.withCost {
		panic("objective: Evaluator built without cost tracking")
	}
	return e.cost
}
