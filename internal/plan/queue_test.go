package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/workload"
)

// vmNeed mirrors SpaceShared's PE accounting: a cloudlet occupies
// min(c.PEs, vm.PEs) processing elements on its VM.
func vmNeed(c *cloud.Cloudlet, vm *cloud.VM) int {
	if c.PEs < vm.PEs {
		return c.PEs
	}
	return vm.PEs
}

// centralQueue is the DES form of queue dispatch, kept as the oracle
// serveQueue is held to: one FIFO over the whole fleet, each arrival
// handed to the lowest-ID VM with enough free PEs, and each completion
// pulling the queue head onto the freed capacity. For a homogeneous fleet
// and single-PE cloudlets this is textbook M/M/c.
//
// The VM pick is a flat max-tree over the VMs' free PEs: leaf size+i holds
// VM i's free PEs (padding leaves hold 0) and every inner node the larger
// of its two children. pick descends from the root, going left whenever
// the left subtree has a VM that fits, so it lands on the lowest-ID VM
// with free ≥ need, which is what a scan in ID order finds. That is exact
// because the fleet is homogeneous: a cloudlet needs min(c.PEs, vm.PEs)
// PEs, the same on every VM, so one comparison per node is the scan's
// comparison for every VM below it. A root below need answers "nothing
// fits" at once, which is the common case in released's drain loop when
// the fleet is saturated.
type centralQueue struct {
	broker *cloud.Broker
	vms    []*cloud.VM // vms[i].ID == i
	free   []int       // the max-tree, root at 1, leaves from len(free)/2
	fifo   []*cloud.Cloudlet
	head   int
}

// newCentralQueue builds the queue over simulate's fleet. It requires
// what the max-tree and the ID-indexed release rely on: every VM has the
// same PEs and VM i has ID i.
func newCentralQueue(broker *cloud.Broker, vms []*cloud.VM) (*centralQueue, error) {
	size := 1
	for size < len(vms) {
		size *= 2
	}
	q := &centralQueue{broker: broker, vms: vms, free: make([]int, 2*size)}
	for i, vm := range vms {
		if vm.ID != i {
			return nil, fmt.Errorf("plan: central queue needs VM IDs 0..%d in order, VM %d has ID %d", len(vms)-1, i, vm.ID)
		}
		if vm.PEs != vms[0].PEs {
			return nil, fmt.Errorf("plan: central queue needs a homogeneous fleet, VM %d has %d PEs and VM 0 has %d", i, vm.PEs, vms[0].PEs)
		}
		q.free[size+i] = vm.PEs
	}
	for k := size - 1; k >= 1; k-- {
		q.free[k] = max(q.free[2*k], q.free[2*k+1])
	}
	return q, nil
}

// pick returns the lowest-ID VM index with enough free PEs for c, or -1.
func (q *centralQueue) pick(c *cloud.Cloudlet) int {
	need := vmNeed(c, q.vms[0])
	if q.free[1] < need {
		return -1
	}
	k, size := 1, len(q.free)/2
	for k < size {
		k *= 2
		if q.free[k] < need {
			k++
		}
	}
	return k - size
}

// adjust adds delta to VM i's free PEs and restores the max on the path to
// the root, stopping where a node's value does not change.
func (q *centralQueue) adjust(i, delta int) {
	k := len(q.free)/2 + i
	q.free[k] += delta
	for k > 1 {
		k /= 2
		m := max(q.free[2*k], q.free[2*k+1])
		if q.free[k] == m {
			return
		}
		q.free[k] = m
	}
}

func (q *centralQueue) dispatch(c *cloud.Cloudlet, i int) {
	q.adjust(i, -vmNeed(c, q.vms[i]))
	q.broker.Submit(c, q.vms[i])
}

// arrive dispatches immediately when capacity is free, else queues.
func (q *centralQueue) arrive(c *cloud.Cloudlet) {
	if i := q.pick(c); i >= 0 {
		q.dispatch(c, i)
		return
	}
	q.fifo = append(q.fifo, c)
}

// released returns c's PEs and drains the queue head while it fits
// somewhere — strict FIFO: if the head fits nowhere, nothing behind it may
// overtake.
func (q *centralQueue) released(c *cloud.Cloudlet) {
	q.adjust(c.VM.ID, vmNeed(c, c.VM))
	for q.head < len(q.fifo) {
		next := q.fifo[q.head]
		j := q.pick(next)
		if j < 0 {
			break
		}
		q.fifo[q.head] = nil // release for GC; the slice itself is reused
		q.head++
		q.dispatch(next, j)
	}
	// Compact the drained prefix once it dominates the backing array.
	if q.head > 4096 && q.head*2 > len(q.fifo) {
		q.fifo = append(q.fifo[:0], q.fifo[q.head:]...)
		q.head = 0
	}
}

// runDESQueue is Run's static queue probe on the DES kernel: the same
// draws, served by centralQueue over simulate's space-shared VMs.
func runDESQueue(spec *Spec, fleet int, opts *RunOptions) (*RunResult, error) {
	if spec.DispatchMode() != DispatchQueue {
		return nil, fmt.Errorf("plan: DES queue oracle on a %s spec", spec.DispatchMode())
	}
	proc, err := opts.arrivals(spec)
	if err != nil {
		return nil, err
	}
	w, err := draw(spec, proc)
	if err != nil {
		return nil, err
	}
	return simulate(spec, fleet, w, opts.recorder(), func(b *cloud.Broker) (dispatcher, error) {
		q, err := newCentralQueue(b, b.Environment().VMs)
		return q, err
	})
}

// scanPick is the central queue's original VM pick, kept as the oracle:
// the lowest-ID VM whose free PEs cover the cloudlet's need on it.
func scanPick(free []int, vms []*cloud.VM, c *cloud.Cloudlet) int {
	for i, vm := range vms {
		if free[i] >= vmNeed(c, vm) {
			return i
		}
	}
	return -1
}

// TestCentralQueuePickMatchesScan drives random dispatch and release
// sequences through the max-tree and requires its pick to agree with the
// linear scan, for every cloudlet width, after every step. Fleets cover
// 1-130 VMs (every power of two up to 128 and its neighbours), VMs 1-4
// PEs, and cloudlets 1-5 PEs, so wide cloudlets are clamped to the VM.
func TestCentralQueuePickMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	probes := make([]*cloud.Cloudlet, 5)
	for i := range probes {
		probes[i] = cloud.NewCloudlet(i, 1, i+1, 0, 0)
	}
	type resident struct{ vm, pes int }
	for fleet := 1; fleet <= 130; fleet++ {
		for pes := 1; pes <= 4; pes++ {
			vms := make([]*cloud.VM, fleet)
			free := make([]int, fleet)
			for i := range vms {
				vms[i] = cloud.NewVM(i, 1000, pes, 512, 500, 5000)
				free[i] = pes
			}
			q, err := newCentralQueue(nil, vms)
			if err != nil {
				t.Fatal(err)
			}
			var running []resident
			for step := 0; step < 4*fleet*pes+40; step++ {
				if len(running) > 0 && r.Intn(5) < 2 {
					k := r.Intn(len(running))
					res := running[k]
					running[k] = running[len(running)-1]
					running = running[:len(running)-1]
					q.adjust(res.vm, res.pes)
					free[res.vm] += res.pes
				} else {
					c := probes[r.Intn(len(probes))]
					if i := q.pick(c); i >= 0 {
						need := vmNeed(c, vms[i])
						q.adjust(i, -need)
						free[i] -= need
						running = append(running, resident{i, need})
					}
				}
				for _, c := range probes {
					if got, want := q.pick(c), scanPick(free, vms, c); got != want {
						t.Fatalf("fleet %d × %d PEs, step %d, %d-PE cloudlet: tree picks %d, scan picks %d (free %v)",
							fleet, pes, step, c.PEs, got, want, free)
					}
				}
			}
		}
	}
}

// TestCentralQueueRejectsOtherFleets: the max-tree is exact only on a
// homogeneous fleet numbered 0..n-1, so the queue refuses anything else.
func TestCentralQueueRejectsOtherFleets(t *testing.T) {
	mixed := []*cloud.VM{cloud.NewVM(0, 1000, 2, 512, 500, 5000), cloud.NewVM(1, 1000, 3, 512, 500, 5000)}
	if _, err := newCentralQueue(nil, mixed); err == nil {
		t.Error("accepted VMs of 2 and 3 PEs")
	}
	renumbered := []*cloud.VM{cloud.NewVM(0, 1000, 1, 512, 500, 5000), cloud.NewVM(7, 1000, 1, 512, 500, 5000)}
	if _, err := newCentralQueue(nil, renumbered); err == nil {
		t.Error("accepted VM 1 with ID 7")
	}
}

// sampleHash is a LatencyStats that also hashes every (wait, latency)
// sample in the order it is observed.
type sampleHash struct {
	*LatencyStats
	h hash.Hash
}

func newSampleHash() *sampleHash {
	return &sampleHash{LatencyStats: NewLatencyStats(), h: sha256.New()}
}

func (r *sampleHash) Observe(wait, latency float64) {
	r.LatencyStats.Observe(wait, latency)
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(wait))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(latency))
	r.h.Write(buf[:])
}

// probeDigest runs one probe with run and hashes its ordered samples and
// its event count.
func probeDigest(t *testing.T, run func(*Spec, int, *RunOptions) (*RunResult, error), spec *Spec, fleet int, proc workload.ArrivalProcess) string {
	t.Helper()
	rec := newSampleHash()
	res, err := run(spec, fleet, &RunOptions{Process: proc, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(spec.Workload.Cloudlets - spec.Workload.Warmup); rec.Count() != want {
		t.Fatalf("recorded %d samples, want %d", rec.Count(), want)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], res.EngineEvents)
	rec.h.Write(buf[:])
	return hex.EncodeToString(rec.h.Sum(nil))
}

// checkAgainstDES requires Run's recursion and the DES central queue to
// record the same samples, bit for bit and in the same order, and to
// report the same event count.
func checkAgainstDES(t *testing.T, label string, spec *Spec, fleet int, proc workload.ArrivalProcess) {
	t.Helper()
	if got, want := probeDigest(t, Run, spec, fleet, proc), probeDigest(t, runDESQueue, spec, fleet, proc); got != want {
		t.Fatalf("%s at %d VMs: recursion digest %s, DES digest %s", label, fleet, got, want)
	}
}

// saturated3peSpec is the root package's pinned saturated-3pe probe:
// 3-PE VMs and MMPP bursts above 37 VMs' 111 PEs.
const saturated3peSpec = `{
  "name": "saturated-3pe",
  "workload": {"process": "mmpp", "rate_a": 90, "rate_b": 140, "sojourn_a": 4, "sojourn_b": 2,
               "cloudlets": 20000, "warmup": 200, "mean_length_mi": 1000},
  "fleet": {"vm_mips": 1000, "vm_pes": 3, "min_vms": 1, "max_vms": 64, "dispatch": "queue"},
  "slo": {"quantile": 0.99, "target_seconds": 6},
  "seed": 5
}`

// TestQueueRecursionMatchesDES is the recursion's differential against the
// DES central queue: the pinned probes at and around their pinned fleets,
// then 300 random static queue specs — poisson and MMPP arrivals, 1-4 PEs
// per VM, 1-16 VMs, offered loads from 0.2 to 1.6 of the fleet's capacity.
func TestQueueRecursionMatchesDES(t *testing.T) {
	for _, p := range []struct {
		doc    string
		fleets []int
	}{
		{perfbenchSpec, []int{1, 300, 320, 345, 2048}},
		{saturated3peSpec, []int{1, 37, 64}},
	} {
		spec, err := ParseSpec([]byte(p.doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, fleet := range p.fleets {
			checkAgainstDES(t, spec.Name, spec, fleet, nil)
		}
	}

	r := rand.New(rand.NewSource(22))
	var over, under int
	for k := 0; k < 300; k++ {
		pes, fleet := 1+r.Intn(4), 1+r.Intn(16)
		mips := 500 + 1500*r.Float64()
		mean := 200 + 1800*r.Float64()
		capacity := float64(fleet*pes) * mips / mean // cloudlets/s
		load := 0.2 + 1.4*r.Float64()
		n := 300 + r.Intn(1701)
		w := WorkloadSpec{Process: "poisson", Rate: load * capacity, Cloudlets: n, Warmup: r.Intn(n / 5), MeanLengthMI: mean}
		if r.Intn(2) == 1 {
			// Two states around the target load: a quiet one and a burst
			// up to three times as fast.
			w = WorkloadSpec{Process: "mmpp", Cloudlets: n, Warmup: w.Warmup, MeanLengthMI: mean,
				RateA: load * capacity * (0.3 + 0.6*r.Float64()), RateB: load * capacity * (1.2 + 1.8*r.Float64()),
				SojournA: 1 + 9*r.Float64(), SojournB: 0.5 + 4*r.Float64()}
		}
		if load > 1 {
			over++
		} else {
			under++
		}
		spec := &Spec{
			Name:     fmt.Sprintf("random-%d", k),
			Workload: w,
			Fleet:    FleetSpec{VMMips: mips, VMPes: pes, MinVMs: 1, MaxVMs: 16, Dispatch: DispatchQueue},
			SLO:      SLOSpec{Quantile: 0.99, TargetSeconds: 6},
			Seed:     r.Uint64(),
		}
		checkAgainstDES(t, spec.Name, spec, fleet, nil)
	}
	if over < 50 || under < 50 {
		t.Fatalf("%d overloaded and %d underloaded specs; want at least 50 of each", over, under)
	}
}

// fixedOffsets is an arrival process that returns the same offsets for
// every seed, sorted or not.
type fixedOffsets []float64

func (f fixedOffsets) Name() string    { return "fixed" }
func (f fixedOffsets) Rate() float64   { return 1 }
func (f fixedOffsets) Validate() error { return nil }
func (f fixedOffsets) Offsets(n int, _ uint64) ([]float64, error) {
	return slices.Clone(f[:n]), nil
}

// TestQueueRecursionMatchesDESOnUnsortedOffsets: an arrival process need
// not sort its offsets. The DES serves them in stable time order, and so
// must the recursion, recording what the DES records in the same order.
func TestQueueRecursionMatchesDESOnUnsortedOffsets(t *testing.T) {
	spec, err := ParseSpec([]byte(saturated3peSpec))
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload.Cloudlets, spec.Workload.Warmup = 3000, 300
	sorted, err := spec.Workload.Arrivals()
	if err != nil {
		t.Fatal(err)
	}
	offsets, err := sorted.Offsets(spec.Workload.Cloudlets, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(3)).Shuffle(len(offsets), func(i, j int) { offsets[i], offsets[j] = offsets[j], offsets[i] })
	for _, fleet := range []int{1, 30, 40, 1000} {
		checkAgainstDES(t, "shuffled", spec, fleet, fixedOffsets(offsets))
	}
}

// TestQueueRecursionMatchesDESOnTies: tied offsets, finishes tied with
// each other and with arrivals, and finishes tied with the start they
// replace. Arrivals come in clumps on a quarter-second grid, half of them
// out of order, and every demand clamps to the 1e-6 MI floor. On 1e-6
// MIPS VMs each service then takes exactly one second, so starts and
// finishes stay on the grid and cloudlets that waited different times
// finish together. On 1e12 MIPS VMs a start plus its service rounds back
// to the start. Every tie then falls to the serve-order tie-break, which
// must match the DES's event sequence.
func TestQueueRecursionMatchesDESOnTies(t *testing.T) {
	spec, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload.Cloudlets, spec.Workload.Warmup = 2000, 100
	spec.Workload.MeanLengthMI = 1e-9
	offsets := make([]float64, spec.Workload.Cloudlets)
	for i := range offsets {
		offsets[i] = float64(i/7) * 0.25
		if i%2 == 1 {
			offsets[i] = float64((len(offsets)-i)/7) * 0.25
		}
	}
	for _, mips := range []float64{1e-6, 1e12} {
		spec := *spec
		spec.Fleet.VMMips = mips
		for _, fleet := range []int{1, 3, 8, 30, 300} {
			checkAgainstDES(t, fmt.Sprintf("tied (%g MIPS)", mips), &spec, fleet, fixedOffsets(offsets))
		}
	}
}

// TestRunRejectsBadOffsets: a NaN, negative or infinite offset, or a
// process that draws the wrong number, is an error naming the offset on
// every path — the recursion, the spread DES and the DES queue oracle —
// not a panic inside the engine.
func TestRunRejectsBadOffsets(t *testing.T) {
	spec, err := ParseSpec([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload.Cloudlets, spec.Workload.Warmup = 10, 0
	spreadSpec := *spec
	spreadSpec.Fleet.Dispatch = DispatchSpread
	runs := map[string]func(*RunOptions) (*RunResult, error){
		"recursion": func(o *RunOptions) (*RunResult, error) { return Run(spec, 2, o) },
		"des-queue": func(o *RunOptions) (*RunResult, error) { return runDESQueue(spec, 2, o) },
		"spread":    func(o *RunOptions) (*RunResult, error) { return Run(&spreadSpec, 2, o) },
	}
	for _, bad := range []float64{math.NaN(), -1, math.Inf(1)} {
		offsets := make(fixedOffsets, 10)
		for i := range offsets {
			offsets[i] = float64(i)
		}
		offsets[6] = bad
		for name, run := range runs {
			_, err := run(&RunOptions{Process: offsets})
			if err == nil || !strings.Contains(err.Error(), "offset 6 ") {
				t.Errorf("%s with offset 6 = %v: err %v, want one naming offset 6", name, bad, err)
			}
		}
	}
	for name, run := range runs {
		if _, err := run(&RunOptions{Process: shortProcess{}}); err == nil {
			t.Errorf("%s accepted a process that drew too few offsets", name)
		}
	}
}

// shortProcess draws one offset fewer than asked.
type shortProcess struct{ fixedOffsets }

func (shortProcess) Offsets(n int, _ uint64) ([]float64, error) { return make([]float64, n-1), nil }
