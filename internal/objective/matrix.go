// Package objective is the shared objective-evaluation layer every scheduler
// in this repository builds on. It centralizes the paper's Eq. 6 quantity
//
//	d_ij = Length_i/(PEs_j·MIPS_j) + FileSize_i/Bw_j
//
// and the two fitness functions derived from it — Eq. 8's estimated makespan
// (the max per-VM sum of d_ij) and the §VI-C-4 processing cost — behind one
// cache-friendly kernel, so ACO, GA, PSO, HBO, the greedy/list heuristics,
// the autoscaler, and the online policies can never drift on their shared
// semantics and never recompute the same estimate twice.
//
// Three pieces:
//
//   - Matrix: the cached d_ij (and optionally cost_ij) store. VMs are
//     partitioned into exec-equivalence classes (identical capacity and
//     bandwidth ⇒ identical d_ij column), so the dense n×m matrix compresses
//     to n×K where K is the number of distinct VM classes — K=1 for the
//     paper's homogeneous scenario, which is what makes its extreme sizes
//     (1 000 000 cloudlets × 100 000 VMs) cacheable at all. When even n×K
//     exceeds the memory bound the Matrix transparently computes entries on
//     demand with the exact same formula. In every mode Exec(i, j) returns a
//     value bit-identical to VMs[j].EstimateExecTime(Cloudlets[i]).
//
//   - Evaluator: full and incremental (delta) evaluation of makespan and
//     cost over an assignment vector. Reassigning one cloudlet updates the
//     fitness in O(1) amortized instead of O(n), which is the dominant cost
//     in metaheuristic search loops.
//
//   - PopEvaluator: a bounded-worker parallel population evaluator whose
//     results are identical regardless of worker count — the same
//     determinism contract internal/experiments guarantees for sweeps.
package objective

import (
	"math"

	"bioschedsim/internal/cloud"
)

// Mode selects the Matrix storage strategy.
type Mode int

// Storage modes.
const (
	// Auto materializes the compressed n×K matrix when it fits within
	// MaxCells and falls back to OnDemand otherwise. The right choice for
	// search algorithms that read entries many times.
	Auto Mode = iota
	// Materialized always builds the n×K matrix, whatever MaxCells says.
	Materialized
	// OnDemand never materializes; every access computes the exact Eq. 6
	// (and cost) formula. The right choice for single-pass consumers that
	// touch each (cloudlet, VM) pair at most once or twice (e.g. HBO).
	OnDemand
)

// DefaultMaxCells bounds the compressed matrix at 64 Mi entries (512 MiB of
// float64 per matrix), mirroring ACO's historical MaxMatrixCells default.
const DefaultMaxCells = 64 << 20

// minParallelCells is the materialized cell count below which row
// construction stays serial: each cell is a handful of flops, so the
// break-even point sits lower than PopEvaluator's per-individual one.
const minParallelCells = 1 << 13

// Options tunes Matrix construction.
type Options struct {
	// Mode selects the storage strategy; zero value is Auto.
	Mode Mode
	// MaxCells bounds the materialized n×K cell count in Auto mode; zero
	// means DefaultMaxCells.
	MaxCells int64
	// WithCost additionally caches the §VI-C-4 processing cost per
	// (cloudlet, class). Cost() works either way; WithCost only decides
	// whether it is precomputed.
	WithCost bool
	// Classes, when non-nil, is ClassesOf(vms) computed earlier, which lets
	// a caller scheduling batch after batch on one fleet partition it once.
	// It is ignored WithCost, whose partition also keys on pricing.
	Classes *Classes
}

// Matrix is the cached execution-estimate (and optionally cost) store for
// one scheduling problem. It is immutable after construction and safe for
// concurrent readers.
type Matrix struct {
	cloudlets []*cloud.Cloudlet
	vms       []*cloud.VM
	n, m      int

	classes *Classes // VM partition; classes.K == 1 for homogeneous fleets

	exec []float64 // n×K row-major d_ij per (cloudlet, class); nil when on demand
	cost []float64 // n×K processing cost per (cloudlet, class); nil unless WithCost
}

// NewMatrix builds the evaluation matrix for the (cloudlets, vms) problem.
// Both slices must be non-empty; entries must be non-nil.
func NewMatrix(cloudlets []*cloud.Cloudlet, vms []*cloud.VM, opts Options) *Matrix {
	if len(cloudlets) == 0 || len(vms) == 0 {
		panic("objective: empty cloudlet or VM list")
	}
	maxCells := opts.MaxCells
	if maxCells <= 0 {
		maxCells = DefaultMaxCells
	}
	withCost := opts.WithCost
	classes := opts.Classes
	if classes == nil || withCost {
		classes = classesOf(vms, withCost)
	}
	mx := &Matrix{
		cloudlets: cloudlets,
		vms:       vms,
		n:         len(cloudlets),
		m:         len(vms),
		classes:   classes,
	}
	k := mx.classes.K
	cells := int64(mx.n) * int64(k)
	materialize := opts.Mode == Materialized || (opts.Mode == Auto && cells <= maxCells)
	if !materialize {
		return mx
	}
	mx.exec = make([]float64, cells)
	if withCost {
		mx.cost = make([]float64, cells)
	}
	// Rows are disjoint slices of the backing arrays, so they materialize in
	// parallel without changing a single bit of any cell, whatever the
	// pool's width.
	workers := EffectiveWorkers(cells, minParallelCells)
	ParallelFor(workers, mx.n, func(i int) {
		c := cloudlets[i]
		row := mx.exec[i*k : (i+1)*k]
		mx.classes.ExecTimes(c, row)
		if withCost {
			crow := mx.cost[i*k : (i+1)*k]
			for cl, rep := range mx.classes.Reps {
				crow[cl] = cloud.ProcessingCost(c, rep)
			}
		}
	})
	return mx
}

// ExecTime is the single source of truth for the paper's Eq. 6 estimate: the
// idealized execution time of c alone on v. It is exactly
// v.EstimateExecTime(c); every scheduler routes through this (or through a
// Matrix caching it) instead of calling the cloud model directly.
func ExecTime(c *cloud.Cloudlet, v *cloud.VM) float64 {
	return v.EstimateExecTime(c)
}

// N returns the cloudlet count.
func (mx *Matrix) N() int { return mx.n }

// M returns the VM count.
func (mx *Matrix) M() int { return mx.m }

// K returns the number of distinct VM exec-equivalence classes.
func (mx *Matrix) K() int { return mx.classes.K }

// Cached reports whether the compressed matrix is materialized.
func (mx *Matrix) Cached() bool { return mx.exec != nil }

// Cloudlets returns the problem's cloudlet list (shared, do not mutate).
func (mx *Matrix) Cloudlets() []*cloud.Cloudlet { return mx.cloudlets }

// VMs returns the problem's VM list (shared, do not mutate).
func (mx *Matrix) VMs() []*cloud.VM { return mx.vms }

// Class returns the exec-equivalence class of VM j.
func (mx *Matrix) Class(j int) int { return int(mx.classes.Index[j]) }

// Exec returns Eq. 6's d_ij for cloudlet i on VM j, bit-identical to
// vms[j].EstimateExecTime(cloudlets[i]) in every storage mode.
func (mx *Matrix) Exec(i, j int) float64 {
	if mx.exec != nil {
		return mx.exec[i*mx.classes.K+int(mx.classes.Index[j])]
	}
	return ExecTime(mx.cloudlets[i], mx.vms[j])
}

// ExecByClass returns d for cloudlet i on any VM of class cl.
func (mx *Matrix) ExecByClass(i, cl int) float64 {
	if mx.exec != nil {
		return mx.exec[i*mx.classes.K+cl]
	}
	return ExecTime(mx.cloudlets[i], mx.classes.Reps[cl])
}

// Cost returns the §VI-C-4 processing cost of running cloudlet i on VM j,
// bit-identical to cloud.ProcessingCost in every storage mode.
//
// Note cost equivalence needs the full class key (resource rate and
// processing price, not just capacity/bandwidth); Matrix only guarantees it
// when built WithCost, and otherwise computes from the concrete VM.
func (mx *Matrix) Cost(i, j int) float64 {
	if mx.cost != nil {
		return mx.cost[i*mx.classes.K+int(mx.classes.Index[j])]
	}
	return cloud.ProcessingCost(mx.cloudlets[i], mx.vms[j])
}

// MakespanOf computes Eq. 8's estimated makespan of the assignment vector
// pos (pos[i] = VM index for cloudlet i) using busy as scratch (len ≥ m).
// The accumulation order (ascending i, then a max scan over VMs) is the
// canonical one every full evaluation in this repository uses, so results
// are reproducible across algorithms.
func (mx *Matrix) MakespanOf(pos []int, busy []float64) float64 {
	busy = busy[:mx.m]
	for j := range busy {
		busy[j] = 0
	}
	if mx.exec != nil {
		k := mx.classes.K
		idx := mx.classes.Index
		for i, j := range pos {
			busy[j] += mx.exec[i*k+int(idx[j])]
		}
	} else {
		for i, j := range pos {
			busy[j] += ExecTime(mx.cloudlets[i], mx.vms[j])
		}
	}
	var max float64
	for _, x := range busy {
		if x > max {
			max = x
		}
	}
	return max
}

// CostOf sums the processing cost of the assignment vector pos in ascending
// cloudlet order.
func (mx *Matrix) CostOf(pos []int) float64 {
	var total float64
	if mx.cost != nil {
		k := mx.classes.K
		idx := mx.classes.Index
		for i, j := range pos {
			total += mx.cost[i*k+int(idx[j])]
		}
		return total
	}
	for i, j := range pos {
		total += cloud.ProcessingCost(mx.cloudlets[i], mx.vms[j])
	}
	return total
}

// Norms returns the summed exec time and cost over every (cloudlet, VM)
// pair — the normalizers multi-objective searches (PSO Combined) divide by.
// Accumulation iterates (i, then j) exactly like the historical in-algorithm
// matrices did: each cloudlet's compressed class row is gathered through the
// VM→class index, threading one accumulator across rows so the grouping
// matches the flat (i, j) loop bit for bit. Zero sums are lifted to 1 so
// they can be divided by.
func (mx *Matrix) Norms() (normTime, normCost float64) {
	k := mx.classes.K
	idx := mx.classes.Index
	row := make([]float64, k)
	for i := 0; i < mx.n; i++ {
		times := row
		if mx.exec != nil {
			times = mx.exec[i*k : (i+1)*k]
		} else {
			mx.classes.ExecTimes(mx.cloudlets[i], row)
		}
		for _, j := range idx {
			normTime += times[j]
		}
		if mx.cost != nil {
			costs := mx.cost[i*k : (i+1)*k]
			for _, j := range idx {
				normCost += costs[j]
			}
		} else {
			// Cost equivalence needs the full pricing key, which this matrix was
			// not built with: sum from the concrete VMs like Cost() does.
			for j := 0; j < mx.m; j++ {
				normCost += cloud.ProcessingCost(mx.cloudlets[i], mx.vms[j])
			}
		}
	}
	//schedlint:ignore floateq sum of non-negative exec times is exactly 0 iff every term is 0; guards division by zero
	if normTime == 0 {
		normTime = 1
	}
	//schedlint:ignore floateq sum of non-negative costs is exactly 0 iff every term is 0; guards division by zero
	if normCost == 0 {
		normCost = 1
	}
	return normTime, normCost
}

// ---------------------------------------------------------------------------

// Classes is a partition of a VM fleet into exec-equivalence classes: two
// VMs land in the same class iff they produce bit-identical d_ij for every
// cloudlet (same capacity and bandwidth; same pricing too when the partition
// was built for cost equivalence).
type Classes struct {
	// Index maps VM position → class id in [0, K).
	Index []int32
	// Reps holds one representative VM per class.
	Reps []*cloud.VM
	// K is the class count.
	K int

	// caps and bws hold each class representative's capacity and bandwidth
	// in class order — the structure-of-arrays inputs ExecTimes fills a
	// whole Eq. 6 row from without touching a VM pointer per class.
	caps, bws []float64
}

// ClassesOf partitions vms by execution equivalence (capacity, bandwidth).
func ClassesOf(vms []*cloud.VM) *Classes { return classesOf(vms, false) }

type classKey struct {
	cap, bw    float64
	rate, proc float64 // cost key components; zero unless withCost
}

func classesOf(vms []*cloud.VM, withCost bool) *Classes {
	cl := &Classes{Index: make([]int32, len(vms))}
	seen := make(map[classKey]int32, 8)
	for j, vm := range vms {
		key := classKey{cap: vm.Capacity(), bw: vm.Bw}
		if withCost {
			key.rate = cloud.ResourceCostRate(vm)
			if dc := vm.Datacenter(); dc != nil {
				key.proc = dc.Characteristics.CostPerProcessing
			}
		}
		id, ok := seen[key]
		if !ok {
			id = int32(len(cl.Reps))
			seen[key] = id
			cl.Reps = append(cl.Reps, vm)
			cl.caps = append(cl.caps, vm.Capacity())
			cl.bws = append(cl.bws, vm.Bw)
		}
		cl.Index[j] = id
	}
	cl.K = len(cl.Reps)
	return cl
}

// ExecTimes fills buf (len ≥ K) with Eq. 6's d for cloudlet c on each class
// and returns buf[:K]. The matrix fills each cloudlet's row from it with K
// formula evaluations instead of m. The fill
// reads the class capacity and bandwidth views, bit-identical to ExecTime
// per entry.
func (cl *Classes) ExecTimes(c *cloud.Cloudlet, buf []float64) []float64 {
	buf = buf[:cl.K]
	if cl.caps == nil {
		// Classes built by hand (without classesOf) lack the SoA views.
		for i, rep := range cl.Reps {
			buf[i] = ExecTime(c, rep)
		}
		return buf
	}
	for k := range buf {
		t := c.Length / cl.caps[k]
		if cl.bws[k] > 0 {
			t += c.FileSize / cl.bws[k]
		}
		buf[k] = t
	}
	return buf
}

// MinExecTime returns the smallest d_ij of c across the fleet — its
// best-case execution time, used e.g. to derive deadlines.
func (cl *Classes) MinExecTime(c *cloud.Cloudlet) float64 {
	best := math.Inf(1)
	for _, rep := range cl.Reps {
		if t := ExecTime(c, rep); t < best {
			best = t
		}
	}
	return best
}

// ---------------------------------------------------------------------------

// VMLoads sums Eq. 6 estimates per VM for the paired (cloudlet, VM) slices
// of an assignment — the quantity schedulers and tests use to reason about
// balance. Accumulation follows slice order.
func VMLoads(cloudlets []*cloud.Cloudlet, vms []*cloud.VM) map[*cloud.VM]float64 {
	load := make(map[*cloud.VM]float64)
	for i, c := range cloudlets {
		load[vms[i]] += ExecTime(c, vms[i])
	}
	return load
}

// EstimatedMakespan returns Eq. 8's estimated makespan of the paired
// assignment slices: the maximum per-VM summed Eq. 6 estimate.
func EstimatedMakespan(cloudlets []*cloud.Cloudlet, vms []*cloud.VM) float64 {
	var max float64
	for _, l := range VMLoads(cloudlets, vms) {
		if l > max {
			max = l
		}
	}
	return max
}
