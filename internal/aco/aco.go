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
// All Eq. 6/8 arithmetic comes from the shared internal/objective layer, and
// tours are scored by its incremental Evaluator. The pheromone is stored
// factored as τ_ij = g·b_ij with a global decay scalar g, which makes Eq.
// 9's evaporation O(1) instead of O(n·m) and lets Eq. 5's sampling skip the
// per-cell τ^α power entirely: g^α is a common factor of every candidate
// weight, so it cancels in the roulette normalization and only b^α·η^β is
// needed. The dense layout's one n×m table is that weight per cell, so a
// pick masks and prefix-sums one row. It is filled from K η^β powers per
// cloudlet (one per VM class) and refreshed on each deposited cell; the
// base pheromone b is kept only for the cells deposits touched, since
// every other cell still holds one shared value. The sampled distribution
// is mathematically identical to the direct form (individual draws may
// differ in the last float ulp). Every power goes through objective.Pow,
// which is math.Pow bit for bit at about half the cost.
//
// Tour construction is the hot path and fans out over GOMAXPROCS workers:
// each ant owns the xrand child stream indexed by (iteration, ant) and
// writes only its own chunk of the combined tour, so assignments are
// bit-identical for every pool width at a fixed seed. The dense layout's
// deposits, the elitist bonus included, fan out the same way, each ant's
// chunk owning its rows; the vector layout's deposits on one pheromone per
// VM stay serial after the join.
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
	// MaxMatrixCells bounds the dense per-(cloudlet, VM) weight table of
	// Eq. 5, one float64 per cell. Batches with n·m beyond the bound fall
	// back to a per-VM pheromone vector, whose η^β and execution-estimate
	// caches have n·K cells under the same bound — exact for the paper's
	// homogeneous scenario (where d_ij is constant per VM) and the only way
	// to run its extreme sizes (1 000 000 cloudlets × 100 000 VMs would need
	// a 10¹¹-cell table).
	MaxMatrixCells int64
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
	}
	return nil
}

// Scheduler is the ACO batch scheduler. It is safe for concurrent Schedule
// calls: each call takes its own run buffers from a pool, and the fleet's
// VM class partition is cached as an immutable snapshot.
type Scheduler struct {
	cfg Config

	// runs pools *run values, so a stream of small batches reuses the
	// weight, pheromone, tour and ant buffers instead of allocating them per
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
	r.ctx, r.mx, r.classes = nil, nil, nil
	s.runs.Put(r)
	return out, nil
}

// renormThreshold triggers folding the global decay scalar g back into the
// stored base pheromone before g underflows. With ρ=0.4, g reaches it after
// ~541 iterations, so renormalization is essentially free.
const renormThreshold = 1e-120

// minParallelCells is the n·m size below which the ant-construction pool
// stays serial. Each roulette candidate costs a multiply and an add, so the
// break-even point sits well below PopEvaluator's per-individual one.
const minParallelCells = 1 << 12

// run carries one call's search state in buffers that outlive the call:
// Schedule pools runs, and reset resizes every buffer to the next problem,
// reallocating only when it has grown. Pheromone has two layouts:
//
//   - dense: the faithful per-(cloudlet, VM) pheromone of Eq. 5, used
//     whenever n·m fits within Config.MaxMatrixCells. Its one n×m table is
//     the roulette weight w = b^α·η^β. The base pheromone b is sparse: every
//     cell no deposit has touched holds the same b0, and each row lists its
//     touched cells with their b and η^β. A row gains at most one cell per
//     iteration (its ant deposits on one cell, and the elitist deposit on
//     that same cell again), so a row has min(Iterations, m) slots and a
//     linear scan finds a cell. Eq. 6 estimates are computed on demand.
//   - vector: one pheromone value per VM, used for the paper's extreme
//     homogeneous sizes (up to 10¹¹ pairs) where a dense table is
//     physically impossible. In the homogeneous scenario every cloudlet has
//     identical d_ij per VM, so collapsing the cloudlet dimension is exact;
//     for heterogeneous batches it is an approximation, which is why the
//     threshold is generous and configurable. Eq. 6 estimates and η^β are
//     cached per (cloudlet, VM class) when the n×K table fits the bound.
//
// Both layouts store τ factored as g·b (see the package comment): evaporate
// touches only g, deposits touch only the cells of the deposited tours, and
// dense picks read the weight row without any power.
type run struct {
	cfg     Config
	ctx     *sched.Context
	n       int // cloudlets
	m       int // VMs
	workers int // effective pool size (≥ 1)
	dense   bool

	mx      *objective.Matrix  // Eq. 6 estimates
	classes *objective.Classes // the fleet's VM partition (shared)
	k       int                // VM class count
	cls     []int32            // VM → class index (the fleet partition's, shared)

	// etaCls caches η_ij^β per (cloudlet, class) in the vector layout when
	// the execution matrix is materialized; nil means compute on demand.
	// etaBuf is its backing store across calls.
	etaCls, etaBuf []float64

	g   float64   // global pheromone decay scalar
	b0  float64   // dense: base pheromone of every untouched cell
	ba0 float64   // b0^α, every untouched cell's b^α
	w   []float64 // dense: Eq. 5 weight b^α·η^β per (cloudlet, VM), row-major

	// Dense touched cells: row i's live entries are the first used[i] of
	// its slots [i·slots, (i+1)·slots), each a VM with its base pheromone
	// and its η^β.
	slots   int
	used    []int32
	cellVM  []int32
	cellB   []float64
	cellEta []float64

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

	ants     int       // colony size for this batch: min(Ants, n)
	chunks   [][2]int  // ant k's cloudlet range [lo, hi)
	tourLens []float64 // ant k's Eq. 8 tour quality this iteration
	busy     []float64 // MakespanOf scratch
	iterBest int       // the ant with the iteration's shortest tour
	seed     uint64    // the search's draw off ctx.Rand
	iterBase uint64    // child-stream index of the iteration's ant 0

	// The fan-out bodies, bound to this run once so that handing them to
	// objective.ParallelFor allocates nothing per call.
	antFn, etaRowFn, weightFn, depositFn func(int)

	bestTour []int
	bestLen  float64
}

// antScratch is one worker's private construction state.
type antScratch struct {
	tabu []bool
	cum  []float64            // roulette cumulative-weight buffer
	eta  []float64            // one row's η^β per VM class
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
			eta:  make([]float64, r.k),
			eval: objective.NewEvaluator(r.mx, false),
			src:  src,
			rnd:  rand.New(src),
		}
	}
	if sc.eval.Matrix() != r.mx {
		sc.tabu = grow(sc.tabu, r.m)
		sc.cum = grow(sc.cum, r.m)
		sc.eta = grow(sc.eta, r.k)
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
	r.weightFn = r.fillWeights
	r.depositFn = r.depositAnt
	return r
}

// reset prepares r for one search of ctx under cfg, with classes the VM
// partition of ctx.VMs.
func (r *run) reset(cfg Config, ctx *sched.Context, classes *objective.Classes) {
	r.cfg, r.ctx = cfg, ctx
	r.n, r.m = len(ctx.Cloudlets), len(ctx.VMs)
	r.bestLen, r.g = math.Inf(1), 1
	r.bestTour = r.bestTour[:0]
	// The pool: one worker below the dispatch break-even point, otherwise
	// GOMAXPROCS. Results never depend on the choice.
	r.workers = objective.EffectiveWorkers(int64(r.n)*int64(r.m), minParallelCells)
	r.classes, r.cls, r.k = classes, classes.Index, classes.K
	r.tour = grow(r.tour, r.n)
	// Following Algorithm 2 and Figure 2, the scheduler "distributes the
	// Cloudlets to each ant": one contiguous chunk per ant, never more ants
	// than cloudlets (the rest would idle).
	r.ants = min(cfg.Ants, r.n)
	r.chunks = grow(r.chunks, r.ants)
	for k := range r.chunks {
		r.chunks[k] = [2]int{k * r.n / r.ants, (k + 1) * r.n / r.ants}
	}

	r.dense = int64(r.n)*int64(r.m) <= cfg.MaxMatrixCells
	r.b0 = cfg.InitialTau
	r.ba0 = objective.Pow(r.b0, cfg.Alpha)
	r.etaCls = nil
	if r.dense {
		// The roulette reads only w, which reset fills row by row from K
		// powers; the Evaluator and MakespanOf compute each Eq. 6 estimate
		// when they need it, bit-identical to a cached one.
		r.mx = objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{Mode: objective.OnDemand, Classes: classes})
		r.w = grow(r.w, r.n*r.m)
		r.slots = min(cfg.Iterations, r.m)
		r.used = grow(r.used, r.n)
		clear(r.used)
		r.cellVM = grow(r.cellVM, r.n*r.slots)
		r.cellB = grow(r.cellB, r.n*r.slots)
		r.cellEta = grow(r.cellEta, r.n*r.slots)
		objective.ParallelFor(r.workers, r.ants, r.weightFn)
		return
	}
	r.mx = objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{MaxCells: cfg.MaxMatrixCells, Classes: classes})
	if r.mx.Cached() {
		// η^β rows are independent; a power per cell is exactly the kind of
		// work that fans out cleanly.
		r.etaBuf = grow(r.etaBuf, r.n*r.k)
		r.etaCls = r.etaBuf
		objective.ParallelFor(r.workers, r.n, r.etaRowFn)
	}
	r.bVM = grow(r.bVM, r.m)
	r.bVMAlpha = grow(r.bVMAlpha, r.m)
	for j := range r.bVM {
		r.bVM[j] = r.b0
		r.bVMAlpha[j] = r.ba0
	}
}

// fillEtaRow fills cloudlet i's row of the vector layout's η^β cache.
func (r *run) fillEtaRow(i int) {
	row := r.etaCls[i*r.k : (i+1)*r.k]
	for cl := range row {
		row[cl] = etaPow(r.mx.ExecByClass(i, cl), r.cfg.Beta)
	}
}

// fillWeights recomputes the dense weight rows of ant k's chunk from the
// stored pheromone: b0^α·η^β on untouched cells, b^α·η^β on touched ones.
// Each row costs K powers for η^β plus one per touched cell, and each
// product has the operands a per-cell store of b and η^β would multiply.
func (r *run) fillWeights(k int) {
	sc := r.getScratch()
	for i := r.chunks[k][0]; i < r.chunks[k][1]; i++ {
		eta := r.classes.ExecTimes(r.ctx.Cloudlets[i], sc.eta)
		for cl, d := range eta {
			eta[cl] = etaPow(d, r.cfg.Beta)
		}
		w := r.w[i*r.m : (i+1)*r.m]
		for j, cl := range r.cls {
			w[j] = r.ba0 * eta[cl]
		}
		lo := i * r.slots
		for e := lo; e < lo+int(r.used[i]); e++ {
			w[r.cellVM[e]] = objective.Pow(r.cellB[e], r.cfg.Alpha) * r.cellEta[e]
		}
	}
	r.scratch.Put(sc)
}

// cell returns the slot of dense cell (i, j), taking the row's next free
// slot on first touch. A new cell starts at b0 with its η^β stored, so each
// deposit on it costs one power. An untouched cell's weight is b0^α·η^β,
// which is η^β itself, bit for bit, while b0^α is exactly 1 (τ(0) = 1, the
// default, before any renormalisation); only otherwise does a first touch
// pay a second power for η^β.
func (r *run) cell(i, j int) int {
	lo := i * r.slots
	hi := lo + int(r.used[i])
	for e := lo; e < hi; e++ {
		if int(r.cellVM[e]) == j {
			return e
		}
	}
	r.cellVM[hi] = int32(j)
	r.cellB[hi] = r.b0
	//schedlint:ignore floateq 1·x is x exactly, so the weight is η^β only when the factor is exactly 1
	if r.ba0 == 1 {
		r.cellEta[hi] = r.w[i*r.m+j]
	} else {
		r.cellEta[hi] = etaPow(r.mx.Exec(i, j), r.cfg.Beta)
	}
	r.used[i]++
	return hi
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

// eta returns the vector layout's cached (or on-demand) η_ij^β.
func (r *run) eta(i, j int) float64 {
	if r.etaCls != nil {
		return r.etaCls[i*r.k+int(r.cls[j])]
	}
	return etaPow(r.mx.Exec(i, j), r.cfg.Beta)
}

// search runs the configured iterations and returns the best combined tour.
//
// Each ant walks VMs for its own chunk of the batch under its own tabu
// list, and the union of all ants' picks is the iteration's solution. The
// best iteration (by Eq. 8 makespan over the union) is returned.
//
// Ants within an iteration are independent — ant k writes only tour[lo:hi)
// of its own chunk and tourLens[k], and draws from its own xrand child
// stream — so construction fans out across the worker pool. So do the
// dense layout's deposits, the elitist bonus included: ant k's chunk owns
// its rows, so no two ants touch the same cell, and each cell gets its
// additions in the serial order. Iteration-best selection, evaporation and
// the vector layout's deposits (which share one pheromone per VM) run
// serially after the join, which is what keeps tours bit-identical for
// every worker count.
func (r *run) search() []int {
	r.tourLens = grow(r.tourLens, r.ants)
	r.busy = grow(r.busy, r.m)
	// One draw off the caller's stream seeds the whole search; ant k of
	// iteration it then owns child stream it·ants+k, so its randomness
	// depends only on (seed, iteration, ant) — never on worker interleaving.
	r.seed = r.ctx.Rand.Uint64()
	for it := 0; it < r.cfg.Iterations; it++ {
		r.iterBase = uint64(it) * uint64(r.ants)
		objective.ParallelFor(r.workers, r.ants, r.antFn)
		r.iterBest = 0
		for k := 1; k < r.ants; k++ {
			if r.tourLens[k] < r.tourLens[r.iterBest] {
				r.iterBest = k
			}
		}
		// Combined iteration quality: Eq. 8 makespan over the whole batch.
		combined := r.mx.MakespanOf(r.tour, r.busy)
		if combined < r.bestLen {
			r.bestLen = combined
			r.bestTour = append(r.bestTour[:0], r.tour...)
		}
		r.evaporate()
		// Eq. 9/10: every ant deposits Q/L_k along its own chunk's edges,
		// and Eq. 11's elitist bonus repeats the iteration-best ant's.
		if r.dense {
			objective.ParallelFor(r.workers, r.ants, r.depositFn)
		} else {
			for k := 0; k < r.ants; k++ {
				r.depositVM(k)
			}
			r.depositVM(r.iterBest)
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
// g in O(1). When g approaches underflow it is folded back into the stored
// base pheromone (rare; see renormThreshold).
func (r *run) evaporate() {
	r.g *= 1 - r.cfg.Rho
	if r.g >= renormThreshold {
		return
	}
	if r.dense {
		r.b0 *= r.g
		r.ba0 = objective.Pow(r.b0, r.cfg.Alpha)
		for i := 0; i < r.n; i++ {
			lo := i * r.slots
			for e := lo; e < lo+int(r.used[i]); e++ {
				r.cellB[e] *= r.g
			}
		}
		objective.ParallelFor(r.workers, r.ants, r.weightFn)
	} else {
		for j := range r.bVM {
			r.bVM[j] *= r.g
		}
	}
	r.g = 1
}

// deposit returns ant k's Q/L_k as a base-pheromone increment: τ += delta
// means b += delta/g in the factored store. It reports false when the
// deposit is not finite, which leaves the pheromone as it is.
func (r *run) deposit(k int) (float64, bool) {
	delta := r.cfg.Q / r.tourLens[k]
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return 0, false
	}
	return delta / r.g, true
}

// depositAnt adds ant k's deposit on each dense cell of its chunk's tour and
// refreshes the cell's weight b^α·η^β. The iteration-best ant adds its
// deposit twice, the second time as Eq. 11's elitist bonus: no pick reads
// the weight in between, so one power serves both.
func (r *run) depositAnt(k int) {
	du, ok := r.deposit(k)
	if !ok {
		return
	}
	elite := k == r.iterBest
	for i := r.chunks[k][0]; i < r.chunks[k][1]; i++ {
		j := r.tour[i]
		e := r.cell(i, j)
		r.cellB[e] += du
		if elite {
			r.cellB[e] += du
		}
		r.w[i*r.m+j] = objective.Pow(r.cellB[e], r.cfg.Alpha) * r.cellEta[e]
	}
}

// depositVM adds ant k's deposit to the vector layout's pheromone of each
// VM its chunk's tour visits.
func (r *run) depositVM(k int) {
	du, ok := r.deposit(k)
	if !ok {
		return
	}
	for i := r.chunks[k][0]; i < r.chunks[k][1]; i++ {
		r.bVM[r.tour[i]] += du
	}
}

func init() {
	sched.Register("aco", func() sched.Scheduler { return Default() })
}
