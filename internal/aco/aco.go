// Package aco implements the paper's Ant Colony Optimization scheduler
// (§IV, Algorithm 2, Equations 5–11, Table II parameters).
//
// Each ant builds a complete cloudlet→VM assignment. For cloudlet i an ant
// picks VM j among its allowed set with probability
//
//	p_ij ∝ τ_ij^α · η_ij^β                      (Eq. 5)
//
// where the heuristic desirability η_ij = 1/d_ij is the inverse expected
// execution time
//
//	d_ij = Length_i/(PEs_j·MIPS_j) + FileSize_i/Bw_j   (Eq. 6)
//
// The tabu list enforces the paper's constraint that an ant visits each VM
// once before revisiting: after every VM has been used the list resets,
// which spreads assignments across the fleet in rounds. A tour's quality
// L_k is Eq. 8's estimated makespan — the maximum per-VM sum of d_ij along
// the tour. After all ants finish a tour, pheromone evaporates and is
// reinforced proportionally to tour quality (Eqs. 7–10), with an elitist
// bonus on the iteration-best tour (Eq. 11). The best tour over all
// iterations is returned.
//
// All Eq. 6/8 arithmetic comes from the shared internal/objective layer: a
// compressed execution matrix caches d_ij per (cloudlet, VM-class), η^β is
// precomputed per class alongside it, and tours are scored by an
// incremental Evaluator. The pheromone itself is stored factored as
// τ_ij = g·b_ij with a global decay scalar g, which makes Eq. 9's
// evaporation O(1) instead of O(n·m) and lets Eq. 5's sampling skip the
// per-cell τ^α power entirely: g^α is a common factor of every candidate
// weight, so it cancels in the roulette normalization and only b^α·η^β is
// needed. The dense layout caches that product per cell and refreshes it on
// deposit, so a pick masks and prefix-sums one row. The sampled
// distribution is mathematically identical to the direct form (individual
// draws may differ in the last float ulp). Every power goes through
// objective.Pow, which is math.Pow bit for bit at about half the cost.
//
// Tour construction is the hot path and fans out over Config.Workers: each
// ant owns the xrand child stream indexed by (iteration, ant) and writes
// only its own chunk of the combined tour, so assignments are bit-identical
// for every worker count at a fixed seed. The pheromone update — which
// couples ants — stays serial in ant order after the join.
//
// With Table II's α=0.01, β=0.99 the search is heavily heuristic-driven:
// ACO chases computation speed, which is exactly the behaviour the paper
// reports (best simulation time, worst load imbalance, longest scheduling
// time).
package aco

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/objective"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/xrand"
)

// Config holds the ACO parameters. Defaults reproduce the paper's Table II.
type Config struct {
	Ants       int     // colony size (Table II: 50)
	Alpha      float64 // pheromone weight α (Table II: 0.01)
	Beta       float64 // heuristic weight β (Table II: 0.99)
	Rho        float64 // pheromone decay ρ (Table II: 0.4)
	Q          float64 // pheromone deposit constant (Table II: 100)
	Iterations int     // tour-construction rounds (paper: "maxIterations")
	InitialTau float64 // τ(0), the uniform initial pheromone (Alg. 2's C)
	// MaxMatrixCells bounds the dense per-(cloudlet, VM) pheromone matrix of
	// Eq. 5 and the shared execution-estimate cache. Batches with n·m beyond
	// the bound fall back to a per-VM pheromone vector — exact for the
	// paper's homogeneous scenario (where d_ij is constant per VM) and the
	// only way to run its extreme sizes (1 000 000 cloudlets × 100 000 VMs
	// would need a 10¹¹-cell matrix).
	MaxMatrixCells int64
	// Workers bounds the per-iteration ant-construction pool: 0 means
	// GOMAXPROCS, 1 forces serial. Tours are bit-identical for every worker
	// count — each ant owns the xrand child stream indexed by
	// (iteration, ant), and pheromone deposits are applied serially in ant
	// order after the join.
	Workers int
}

// DefaultConfig returns Table II's parameters with 20 iterations and τ(0)=1.
// The paper's Algorithm 2 leaves maxIterations open ("multiple values were
// tested, and the best parameters were chosen"); 20 is where the combined
// tour quality stops improving on the heterogeneous workload, see the
// abl-aco-params benchmarks.
func DefaultConfig() Config {
	return Config{Ants: 50, Alpha: 0.01, Beta: 0.99, Rho: 0.4, Q: 100, Iterations: 20, InitialTau: 1, MaxMatrixCells: 64 << 20}
}

// Validate rejects configurations the update rules cannot handle.
func (c Config) Validate() error {
	switch {
	case c.Ants <= 0:
		return fmt.Errorf("aco: Ants must be positive, got %d", c.Ants)
	case c.Iterations <= 0:
		return fmt.Errorf("aco: Iterations must be positive, got %d", c.Iterations)
	case c.Rho < 0 || c.Rho >= 1:
		return fmt.Errorf("aco: Rho must be in [0,1), got %v", c.Rho)
	case c.Q <= 0:
		return fmt.Errorf("aco: Q must be positive, got %v", c.Q)
	case c.InitialTau <= 0:
		return fmt.Errorf("aco: InitialTau must be positive, got %v", c.InitialTau)
	case c.Alpha < 0 || c.Beta < 0:
		return fmt.Errorf("aco: Alpha and Beta must be non-negative, got %v/%v", c.Alpha, c.Beta)
	case c.MaxMatrixCells <= 0:
		return fmt.Errorf("aco: MaxMatrixCells must be positive, got %d", c.MaxMatrixCells)
	case c.Workers < 0:
		return fmt.Errorf("aco: Workers must be non-negative, got %d", c.Workers)
	}
	return nil
}

// Scheduler is the ACO batch scheduler. It is safe for concurrent Schedule
// calls: each call takes its own run buffers from a pool, and the fleet's
// VM class partition is cached as an immutable snapshot.
type Scheduler struct {
	cfg Config

	// runs pools *run values, so a stream of small batches reuses the
	// pheromone, η^β, tour and ant buffers instead of allocating them per
	// call.
	runs sync.Pool
	// fleet is the VM class partition of the last fleet scheduled onto.
	fleet atomic.Pointer[fleetClasses]
}

// fleetClasses is one fleet's VM class partition together with the inputs
// it was built from. It is immutable once published.
type fleetClasses struct {
	vms     []*cloud.VM
	caps    []uint64 // math.Float64bits of each VM's Capacity()
	bws     []uint64 // math.Float64bits of each VM's Bw
	classes *objective.Classes
}

// matches reports whether vms is exactly the fleet f was built from: the
// same VM pointers in the same order, with bit-identical capacity and
// bandwidth, the only VM fields the partition reads.
func (f *fleetClasses) matches(vms []*cloud.VM) bool {
	if f == nil || len(f.vms) != len(vms) {
		return false
	}
	for j, vm := range vms {
		if vm != f.vms[j] || math.Float64bits(vm.Capacity()) != f.caps[j] || math.Float64bits(vm.Bw) != f.bws[j] {
			return false
		}
	}
	return true
}

// classesFor returns the VM class partition of vms, rebuilding the cached
// one only when the fleet changed since the last call.
func (s *Scheduler) classesFor(vms []*cloud.VM) *objective.Classes {
	if f := s.fleet.Load(); f.matches(vms) {
		return f.classes
	}
	f := &fleetClasses{
		vms:     append([]*cloud.VM(nil), vms...),
		caps:    make([]uint64, len(vms)),
		bws:     make([]uint64, len(vms)),
		classes: objective.ClassesOf(vms),
	}
	for j, vm := range vms {
		f.caps[j] = math.Float64bits(vm.Capacity())
		f.bws[j] = math.Float64bits(vm.Bw)
	}
	s.fleet.Store(f)
	return f.classes
}

// New returns an ACO scheduler with cfg; zero-value fields fall back to the
// paper's defaults field-by-field.
func New(cfg Config) *Scheduler {
	def := DefaultConfig()
	if cfg.Ants == 0 {
		cfg.Ants = def.Ants
	}
	//schedlint:ignore floateq 0 is the documented "use default" sentinel on caller-set config, not a computed value
	if cfg.Alpha == 0 && cfg.Beta == 0 {
		cfg.Alpha, cfg.Beta = def.Alpha, def.Beta
	}
	//schedlint:ignore floateq 0 is the documented "use default" sentinel on caller-set config, not a computed value
	if cfg.Rho == 0 {
		cfg.Rho = def.Rho
	}
	//schedlint:ignore floateq 0 is the documented "use default" sentinel on caller-set config, not a computed value
	if cfg.Q == 0 {
		cfg.Q = def.Q
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = def.Iterations
	}
	//schedlint:ignore floateq 0 is the documented "use default" sentinel on caller-set config, not a computed value
	if cfg.InitialTau == 0 {
		cfg.InitialTau = def.InitialTau
	}
	if cfg.MaxMatrixCells == 0 {
		cfg.MaxMatrixCells = def.MaxMatrixCells
	}
	return &Scheduler{cfg: cfg}
}

// Default returns an ACO scheduler with the paper's Table II parameters.
func Default() *Scheduler { return New(DefaultConfig()) }

// Config returns the scheduler's effective configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// SetWorkers implements sched.WorkerTunable: it bounds the ant-construction
// pool (0 = GOMAXPROCS, 1 = serial) without changing any tour.
func (s *Scheduler) SetWorkers(workers int) { s.cfg.Workers = workers }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "aco" }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(ctx *sched.Context) ([]sched.Assignment, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx.Rand == nil {
		return nil, fmt.Errorf("aco: scheduler requires ctx.Rand")
	}
	r, _ := s.runs.Get().(*run)
	if r == nil {
		r = newRun()
	}
	r.reset(s.cfg, ctx, s.classesFor(ctx.VMs))
	best := r.search()
	out := make([]sched.Assignment, len(ctx.Cloudlets))
	for i, v := range best {
		out[i] = sched.Assignment{Cloudlet: ctx.Cloudlets[i], VM: ctx.VMs[v]}
	}
	r.ctx, r.mx = nil, nil
	s.runs.Put(r)
	return out, nil
}

// renormThreshold triggers folding the global decay scalar g back into the
// per-cell base pheromone before g underflows. With ρ=0.4, g reaches it
// after ~650 iterations, so renormalization is essentially free.
const renormThreshold = 1e-120

// minParallelCells is the n·m size below which the ant-construction pool
// stays serial. Each roulette candidate costs a multiply and an add, so the
// break-even point sits well below PopEvaluator's per-individual one.
const minParallelCells = 1 << 12

// run carries one call's search state in buffers that outlive the call:
// Schedule pools runs, and reset resizes every buffer to the next problem,
// reallocating only when it has grown. Execution estimates live in a
// shared objective.Matrix (compressed per VM class); pheromone has two
// layouts:
//
//   - dense: the faithful per-(cloudlet, VM) matrix of Eq. 5, used whenever
//     n·m fits within Config.MaxMatrixCells;
//   - vector: one pheromone value per VM, used for the paper's extreme
//     homogeneous sizes (up to 10¹¹ pairs) where a dense matrix is
//     physically impossible. In the homogeneous scenario every cloudlet has
//     identical d_ij per VM, so collapsing the cloudlet dimension is exact;
//     for heterogeneous batches it is an approximation, which is why the
//     threshold is generous and configurable.
//
// Both layouts store τ factored as g·b (see the package comment): evaporate
// touches only g, deposits touch only the cells of the deposited tours, and
// dense picks read the cached weight row b^α·η^β without any power.
type run struct {
	cfg     Config
	ctx     *sched.Context
	n       int // cloudlets
	m       int // VMs
	workers int // effective construction pool size (≥ 1)
	dense   bool

	mx  *objective.Matrix // shared Eq. 6 cache
	k   int               // VM class count
	cls []int32           // VM → class index (the fleet partition's, shared)

	// etaCls caches η_ij^β per (cloudlet, class) when the execution matrix is
	// materialized; nil means compute on demand (memory-bounded fallback).
	// etaBuf is its backing store across calls.
	etaCls, etaBuf []float64

	g        float64   // global pheromone decay scalar
	ba0      float64   // τ(0)^α, every cell's initial b^α
	b        []float64 // dense: base pheromone per (cloudlet, VM), row-major
	w        []float64 // dense: cached Eq. 5 weight b^α·η^β, refreshed on deposit
	bVM      []float64 // vector: base pheromone per VM
	bVMAlpha []float64 // vector: cached b^α, refreshed once per iteration

	// tour is the current combined assignment (cloudlet → VM index). Ants
	// write disjoint chunks of it, so the parallel construction phase shares
	// it without synchronization.
	tour []int
	// scratch pools per-worker antScratch values so a parallel iteration
	// never shares tabu lists, roulette weights, evaluators or generators
	// across goroutines.
	scratch sync.Pool

	chunks   [][2]int  // ant k's cloudlet range [lo, hi)
	tourLens []float64 // ant k's Eq. 8 tour quality this iteration
	busy     []float64 // MakespanOf scratch
	seed     uint64    // the search's draw off ctx.Rand
	iterBase uint64    // child-stream index of the iteration's ant 0

	// The fan-out bodies, bound to this run once so that handing them to
	// objective.ParallelFor allocates nothing per call.
	antFn, etaRowFn, tauRowFn func(int)

	bestTour []int
	bestLen  float64
}

// antScratch is one worker's private construction state.
type antScratch struct {
	tabu []bool
	cum  []float64            // roulette cumulative-weight buffer
	eval *objective.Evaluator // incremental Eq. 8 scorer for ant tours
	src  *xrand.Source        // repositioned on each ant's child stream
	rnd  *rand.Rand           // draws from src
}

// getScratch returns a worker scratch sized and bound to r's problem. A
// scratch left over from an earlier call is rebound on first use.
func (r *run) getScratch() *antScratch {
	sc, _ := r.scratch.Get().(*antScratch)
	if sc == nil {
		src := xrand.NewSource(0)
		return &antScratch{
			tabu: make([]bool, r.m),
			cum:  make([]float64, r.m),
			eval: objective.NewEvaluator(r.mx, false),
			src:  src,
			rnd:  rand.New(src),
		}
	}
	if sc.eval.Matrix() != r.mx {
		sc.tabu = grow(sc.tabu, r.m)
		sc.cum = grow(sc.cum, r.m)
		sc.eval.Rebind(r.mx)
	}
	return sc
}

// grow returns s with length n, reallocating only when its capacity is
// short.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

func newRun() *run {
	r := &run{}
	r.antFn = r.buildAnt
	r.etaRowFn = r.fillEtaRow
	r.tauRowFn = r.fillTauRow
	return r
}

// reset prepares r for one search of ctx under cfg, with classes the VM
// partition of ctx.VMs. A dense run always has the η^β cache: dense means
// n·m ≤ MaxMatrixCells, and the class count K ≤ m, so the n·K execution
// matrix fits the same bound and is materialized. Only the vector layout
// may compute η^β on demand.
func (r *run) reset(cfg Config, ctx *sched.Context, classes *objective.Classes) {
	r.cfg, r.ctx = cfg, ctx
	r.n, r.m = len(ctx.Cloudlets), len(ctx.VMs)
	r.bestLen, r.g = math.Inf(1), 1
	r.bestTour = r.bestTour[:0]
	// The construction pool: one worker below the dispatch break-even point,
	// otherwise the configured bound. Results never depend on the choice.
	r.workers = objective.EffectiveWorkers(cfg.Workers, int64(r.n)*int64(r.m), minParallelCells)
	r.mx = objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{MaxCells: cfg.MaxMatrixCells, Workers: cfg.Workers, Classes: classes})
	r.k = r.mx.K()
	r.cls = classes.Index
	r.etaCls = nil
	if r.mx.Cached() {
		// η^β rows are independent; a power per cell is exactly the kind of
		// work that fans out cleanly.
		r.etaBuf = grow(r.etaBuf, r.n*r.k)
		r.etaCls = r.etaBuf
		objective.ParallelFor(r.workers, r.n, r.etaRowFn)
	}
	r.tour = grow(r.tour, r.n)

	r.dense = int64(r.n)*int64(r.m) <= cfg.MaxMatrixCells
	r.ba0 = objective.Pow(cfg.InitialTau, cfg.Alpha)
	if r.dense {
		r.b = grow(r.b, r.n*r.m)
		r.w = grow(r.w, r.n*r.m)
		objective.ParallelFor(r.workers, r.n, r.tauRowFn)
	} else {
		r.bVM = grow(r.bVM, r.m)
		r.bVMAlpha = grow(r.bVMAlpha, r.m)
		for j := range r.bVM {
			r.bVM[j] = cfg.InitialTau
			r.bVMAlpha[j] = r.ba0
		}
	}
}

// fillEtaRow fills cloudlet i's row of the η^β cache.
func (r *run) fillEtaRow(i int) {
	row := r.etaCls[i*r.k : (i+1)*r.k]
	for cl := range row {
		row[cl] = etaPow(r.mx.ExecByClass(i, cl), r.cfg.Beta)
	}
}

// fillTauRow sets cloudlet i's dense pheromone row to τ(0) and its cached
// weights to τ(0)^α·η^β.
func (r *run) fillTauRow(i int) {
	row := r.b[i*r.m : (i+1)*r.m]
	w := r.w[i*r.m : (i+1)*r.m]
	eta := r.etaCls[i*r.k : (i+1)*r.k]
	for j := range row {
		row[j] = r.cfg.InitialTau
		w[j] = r.ba0 * eta[r.cls[j]]
	}
}

// setWeight refreshes dense cell (i, j)'s cached weight from its base
// pheromone: the same b^α·η^β operands a pick would multiply, so caching
// the product moves no bit.
func (r *run) setWeight(i, j int) {
	idx := i*r.m + j
	r.w[idx] = objective.Pow(r.b[idx], r.cfg.Alpha) * r.etaCls[i*r.k+int(r.cls[j])]
}

// etaPow returns η^β = (1/d)^β with the degenerate d≤0 case clamped so the
// weight stays finite-ready for the roulette's overflow fallback. Table II's
// β = 0.99 takes objective.Pow's fast path.
func etaPow(d, beta float64) float64 {
	if d <= 0 {
		d = math.SmallestNonzeroFloat64
	}
	return objective.Pow(1/d, beta)
}

// eta returns the cached (or on-demand) η_ij^β.
func (r *run) eta(i, j int) float64 {
	if r.etaCls != nil {
		return r.etaCls[i*r.k+int(r.cls[j])]
	}
	return etaPow(r.mx.Exec(i, j), r.cfg.Beta)
}

// search runs the configured iterations and returns the best combined tour.
//
// Following Algorithm 2 and Figure 2, the scheduler "distributes the
// Cloudlets to each ant": the batch is partitioned into one contiguous
// chunk per ant, each ant walks VMs for its own chunk under its own tabu
// list, and the union of all ants' picks is the iteration's solution. The
// best iteration (by Eq. 8 makespan over the union) is returned.
//
// Ants within an iteration are independent — ant k writes only tour[lo:hi)
// of its own chunk and tourLens[k], and draws from its own xrand child
// stream — so construction fans out across the worker pool. Everything that
// couples ants (iteration-best selection, evaporation, deposits in ant
// order, the elitist bonus) runs serially after the join, which is what
// keeps tours bit-identical for every worker count.
func (r *run) search() []int {
	ants := r.cfg.Ants
	if ants > r.n {
		ants = r.n // never more ants than cloudlets; the rest would idle
	}
	r.chunks = grow(r.chunks, ants)
	for k := 0; k < ants; k++ {
		r.chunks[k] = [2]int{k * r.n / ants, (k + 1) * r.n / ants}
	}
	r.tourLens = grow(r.tourLens, ants)
	r.busy = grow(r.busy, r.m)
	// One draw off the caller's stream seeds the whole search; ant k of
	// iteration it then owns child stream it·ants+k, so its randomness
	// depends only on (seed, iteration, ant) — never on worker interleaving.
	r.seed = r.ctx.Rand.Uint64()
	for it := 0; it < r.cfg.Iterations; it++ {
		r.iterBase = uint64(it) * uint64(ants)
		objective.ParallelFor(r.workers, ants, r.antFn)
		iterBest := 0
		for k := 1; k < ants; k++ {
			if r.tourLens[k] < r.tourLens[iterBest] {
				iterBest = k
			}
		}
		// Combined iteration quality: Eq. 8 makespan over the whole batch.
		combined := r.mx.MakespanOf(r.tour, r.busy)
		if combined < r.bestLen {
			r.bestLen = combined
			r.bestTour = append(r.bestTour[:0], r.tour...)
		}
		r.evaporate()
		// Eq. 9/10: every ant deposits Q/L_k along its own chunk's edges.
		for k := 0; k < ants; k++ {
			r.depositChunk(r.chunks[k][0], r.chunks[k][1], r.cfg.Q/r.tourLens[k])
		}
		// Eq. 11: elitist reinforcement of the iteration-best ant's tour.
		r.depositChunk(r.chunks[iterBest][0], r.chunks[iterBest][1], r.cfg.Q/r.tourLens[iterBest])
		if !r.dense {
			// The vector layout refreshes its K≪n·m cached powers in one pass.
			for j := range r.bVM {
				r.bVMAlpha[j] = objective.Pow(r.bVM[j], r.cfg.Alpha)
			}
		}
	}
	return r.bestTour
}

// buildAnt runs ant k of the current iteration on a worker scratch, drawing
// from the ant's own child stream.
func (r *run) buildAnt(k int) {
	sc := r.getScratch()
	sc.src.SetStream(r.seed, r.iterBase+uint64(k))
	r.tourLens[k] = r.construct(r.chunks[k][0], r.chunks[k][1], sc.rnd, sc)
	r.scratch.Put(sc)
}

// construct builds one ant's tour for cloudlets [lo,hi) into r.tour[lo:hi]
// and returns its quality L_k per Eq. 8: the maximum over VMs of the summed
// expected execution times the ant routed to that VM. rnd is the ant's own
// child stream and sc its worker-private scratch; the incremental
// evaluator's epoch reset keeps scoring proportional to the chunk, not the
// fleet.
func (r *run) construct(lo, hi int, rnd *rand.Rand, sc *antScratch) float64 {
	tabu := sc.tabu
	for v := range tabu {
		tabu[v] = false
	}
	free := r.m
	// Alg. 2 line 4: the ant starts at a random VM, which is marked visited.
	start := rnd.Intn(r.m)
	tabu[start] = true
	free--
	if free == 0 { // single-VM fleet
		var sum float64
		for i := lo; i < hi; i++ {
			r.tour[i] = start
			sum += r.mx.Exec(i, start)
		}
		return sum
	}
	e := sc.eval
	e.Reset()
	for i := lo; i < hi; i++ {
		j := r.pick(i, tabu, sc.cum, rnd)
		r.tour[i] = j
		e.Assign(i, j)
		tabu[j] = true
		free--
		if free == 0 {
			// Constraint satisfied for every VM: start a fresh visiting round.
			for v := range tabu {
				tabu[v] = false
			}
			free = r.m
		}
	}
	return e.Makespan()
}

// pick samples a VM for cloudlet i by Eq. 5's probabilistic transition rule,
// restricted to VMs outside the tabu list. Weights are b^α·η^β — the g^α
// factor of the true τ^α·η^β is shared by every candidate and cancels in
// the normalization below.
//
// The roulette is prefix-sum form: cum[j] holds the running weight total
// through VM j (tabu VMs contribute exactly 0), and the draw resolves with
// an upper-bound search for the first cum[j] > x. Because cum strictly
// increases at j exactly when weight j is positive, the selected VM always
// carries positive weight and is never tabu. Both halves live in
// roulette.go; FuzzRoulette pins the binary search to a linear scan.
func (r *run) pick(i int, tabu []bool, cum []float64, rnd interface{ Float64() float64 }) int {
	cum = cum[:r.m]
	var total float64
	if r.dense {
		// Hot path: one masked prefix sum over the cached weight row.
		total = maskedCum(r.w[i*r.m:(i+1)*r.m], tabu, cum)
	} else {
		// The vector layout forms the weights in cum itself; tabu VMs skip
		// the η^β power, and the mask zeroes their stale entries.
		for j := 0; j < r.m; j++ {
			if !tabu[j] {
				cum[j] = r.bVMAlpha[j] * r.eta(i, j)
			}
		}
		total = maskedCum(cum, tabu, cum)
	}
	if total <= 0 || math.IsInf(total, 1) || math.IsNaN(total) {
		// Degenerate weights (all under/overflowed): fall back to the first
		// allowed VM, keeping the run deterministic.
		for j := 0; j < r.m; j++ {
			if !tabu[j] {
				return j
			}
		}
		return 0
	}
	x := rnd.Float64() * total
	if j := searchCum(cum, x); j < r.m {
		return j
	}
	// Float round-off (x rounded up to the total): return the last allowed VM.
	for j := r.m - 1; j >= 0; j-- {
		if !tabu[j] {
			return j
		}
	}
	return 0
}

// evaporate applies Eq. 9's decay τ ← (1−ρ)τ by scaling the global factor
// g in O(1). When g approaches underflow it is folded back into the base
// pheromone cells (rare; see renormThreshold).
func (r *run) evaporate() {
	r.g *= 1 - r.cfg.Rho
	if r.g >= renormThreshold {
		return
	}
	if r.dense {
		for i := 0; i < r.n; i++ {
			for j := 0; j < r.m; j++ {
				r.b[i*r.m+j] *= r.g
				r.setWeight(i, j)
			}
		}
	} else {
		for j := range r.bVM {
			r.bVM[j] *= r.g
		}
	}
	r.g = 1
}

// depositChunk adds delta pheromone along the current tour's edges for
// cloudlets [lo,hi): τ += delta means b += delta/g in the factored store.
func (r *run) depositChunk(lo, hi int, delta float64) {
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return
	}
	du := delta / r.g
	if !r.dense {
		for i := lo; i < hi; i++ {
			r.bVM[r.tour[i]] += du
		}
		return
	}
	for i := lo; i < hi; i++ {
		r.b[i*r.m+r.tour[i]] += du
		r.setWeight(i, r.tour[i])
	}
}

func init() {
	sched.Register("aco", func() sched.Scheduler { return Default() })
	sched.DeclareTraits("aco", sched.Traits{Stochastic: true, Parallel: true})
}

// TourLength exposes the internal tour-quality function (Eq. 8) for tests
// and ablations: the estimated makespan of an assignment, i.e. the maximum
// over VMs of the summed expected execution times (Eq. 6) routed to it.
func TourLength(assignments []sched.Assignment) float64 {
	return sched.EstimatedMakespan(assignments)
}
