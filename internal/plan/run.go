package plan

import (
	"fmt"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/elastic"
	"bioschedsim/internal/sim"
	"bioschedsim/internal/workload"
	"bioschedsim/internal/xrand"
)

// RunOptions are injection points for the check harness; zero values mean
// "use the spec".
type RunOptions struct {
	// Process overrides the spec's arrival process (the biased-generator
	// plant swaps one in here).
	Process workload.ArrivalProcess
	// Recorder overrides the default LatencyStats (the dropping-recorder
	// plant swaps one in here).
	Recorder Recorder
}

// RunResult is one measured run at a fixed (or autoscaled) fleet size.
type RunResult struct {
	Fleet     int // fleet size at start
	PeakFleet int // max fleet size reached (== Fleet unless elastic)

	Recorder Recorder // post-warmup wait/latency samples

	ScaleUps, ScaleDowns int // autoscaler decisions (elastic only)

	EngineEvents uint64 // DES events fired, for throughput benches
}

// SLOValue returns the latency at the spec's SLO quantile.
func (r *RunResult) SLOValue(spec *Spec) float64 {
	return r.Recorder.Quantile(spec.SLO.Quantile)
}

// SLOMet reports whether the run met the spec's SLO. An empty recorder
// yields NaN, which never meets a target.
func (r *RunResult) SLOMet(spec *Spec) bool {
	return r.SLOValue(spec) <= spec.SLO.TargetSeconds
}

// vmNeed mirrors SpaceShared's PE accounting: a cloudlet occupies
// min(c.PEs, vm.PEs) processing elements on its VM.
func vmNeed(c *cloud.Cloudlet, vm *cloud.VM) int {
	if c.PEs < vm.PEs {
		return c.PEs
	}
	return vm.PEs
}

// centralQueue is the queue-dispatch engine: one FIFO over the whole
// fleet, each arrival handed to the lowest-ID VM with enough free PEs, and
// each completion pulling the queue head onto the freed capacity. For a
// homogeneous fleet and single-PE cloudlets this is textbook M/M/c — the
// property the qmodel-oracle invariant certifies.
//
// The VM pick is a flat max-tree over the VMs' free PEs: leaf size+i holds
// VM i's free PEs (padding leaves hold 0) and every inner node the larger
// of its two children. pick descends from the root, going left whenever
// the left subtree has a VM that fits, so it lands on the lowest-ID VM
// with free ≥ need, which is what a scan in ID order finds. That is exact
// because the fleet is homogeneous: a cloudlet needs min(c.PEs, vm.PEs)
// PEs, the same on every VM, so one comparison per node is the scan's
// comparison for every VM below it. A root below need answers "nothing
// fits" at once, which is the common case in onFinish's drain loop when
// the fleet is saturated.
type centralQueue struct {
	broker *cloud.Broker
	vms    []*cloud.VM // vms[i].ID == i
	free   []int       // the max-tree, root at 1, leaves from len(free)/2
	fifo   []*cloud.Cloudlet
	head   int
}

// newCentralQueue builds the queue over buildFleet's fleet. It requires
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

// onFinish releases c's PEs and drains the queue head while it fits
// somewhere — strict FIFO: if the head fits nowhere, nothing behind it may
// overtake.
func (q *centralQueue) onFinish(c *cloud.Cloudlet) {
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

// spreadPick returns the VM with the fewest resident cloudlets (lowest ID
// on ties) from the live fleet — the per-VM-queue dispatch the autoscaler
// monitors.
func spreadPick(vms []*cloud.VM) *cloud.VM {
	var best *cloud.VM
	bestLoad := 0
	for _, vm := range vms {
		if vm.Scheduler() == nil {
			continue // still booting
		}
		load := vm.QueuedOrRunning()
		if best == nil || load < bestLoad || (load == bestLoad && vm.ID < best.ID) {
			best, bestLoad = vm, load
		}
	}
	return best
}

// buildFleet materializes hosts and the initial VM fleet. hostSlots is the
// number of single-VM hosts to provision (> fleet for elastic headroom).
func buildFleet(spec *Spec, fleet, hostSlots int) (*cloud.Environment, error) {
	env := &cloud.Environment{}
	hosts := make([]*cloud.Host, hostSlots)
	for i := range hosts {
		hosts[i] = cloud.NewHost(i, cloud.NewPEs(spec.Fleet.VMPes, spec.Fleet.VMMips), 1<<16, 1<<20, 1<<30)
	}
	dc := cloud.NewDatacenter(0, "plan", cloud.Characteristics{}, hosts)
	env.Datacenters = []*cloud.Datacenter{dc}
	for i := 0; i < fleet; i++ {
		vm := cloud.NewVM(i, spec.Fleet.VMMips, spec.Fleet.VMPes, 512, 500, 5000)
		if err := hosts[i].Place(vm); err != nil {
			return nil, err
		}
		env.VMs = append(env.VMs, vm)
	}
	return env, nil
}

// Run executes the spec's workload against a fleet of the given size and
// returns the measured result. The run is a pure function of
// (spec, fleet, opts): arrivals come from the spec's process (stream
// seed/5, 8, or 9 by kind), service demands are exponential with mean
// MeanLengthMI (stream (seed, 6)), and the engine is the deterministic DES
// kernel — same spec, same seed, same verdict.
func Run(spec *Spec, fleet int, opts *RunOptions) (*RunResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if fleet < 1 {
		return nil, fmt.Errorf("plan: fleet size must be at least 1, got %d", fleet)
	}
	if opts == nil {
		opts = &RunOptions{}
	}
	proc := opts.Process
	if proc == nil {
		var err error
		if proc, err = spec.Workload.Arrivals(); err != nil {
			return nil, err
		}
	}
	rec := opts.Recorder
	if rec == nil {
		rec = NewLatencyStats()
	}

	n := spec.Workload.Cloudlets
	offsets, err := proc.Offsets(n, spec.Seed)
	if err != nil {
		return nil, err
	}

	// Service demands: exponential length with mean MeanLengthMI, clamped
	// to the engine's positive-length floor. Stream (seed, 6) is reserved
	// for service draws so arrival and service randomness never correlate.
	lengths := make([]float64, n)
	r := xrand.New(spec.Seed, 6)
	for i := range lengths {
		l := r.ExpFloat64() * spec.Workload.MeanLengthMI
		if l < 1e-6 {
			l = 1e-6
		}
		lengths[i] = l
	}

	hostSlots := fleet
	if spec.Elastic != nil && spec.Fleet.MaxVMs > hostSlots {
		hostSlots = spec.Fleet.MaxVMs
	}
	env, err := buildFleet(spec, fleet, hostSlots)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	broker := cloud.NewBroker(eng, env, cloud.SpaceSharedFactory)

	cloudlets := make([]*cloud.Cloudlet, n)
	for i := range cloudlets {
		cloudlets[i] = cloud.NewCloudlet(i, lengths[i], 1, 0, 0)
	}

	// Latency is measured against the arrival offset, not SubmitTime:
	// under queue dispatch a cloudlet is only submitted once capacity
	// frees, so its scheduler-visible wait is ~0 and the queueing delay
	// lives between arrival and submission.
	warmup := spec.Workload.Warmup
	var queue *centralQueue
	mode := spec.DispatchMode()
	if mode == DispatchQueue {
		if queue, err = newCentralQueue(broker, env.VMs); err != nil {
			return nil, err
		}
	}
	broker.OnFinish(func(c *cloud.Cloudlet) {
		if queue != nil {
			queue.onFinish(c)
		}
		if c.ID >= warmup {
			arrival := offsets[c.ID]
			rec.Observe(float64(c.StartTime)-arrival, float64(c.FinishTime)-arrival)
		}
	})

	if queue != nil {
		eng.ScheduleStream(offsets, sim.PriorityAcquire, func(i int) { queue.arrive(cloudlets[i]) })
	} else {
		eng.ScheduleStream(offsets, sim.PriorityAcquire, func(i int) {
			if vm := spreadPick(broker.Environment().VMs); vm != nil {
				broker.Submit(cloudlets[i], vm)
			}
		})
	}

	var scaler *elastic.Autoscaler
	if e := spec.Elastic; e != nil {
		pol := elastic.Policy{
			ScaleUpLoad:   e.ScaleUpLoad,
			ScaleDownLoad: e.ScaleDownLoad,
			Interval:      sim.Time(e.Interval),
			MinVMs:        spec.Fleet.MinVMs,
			MaxVMs:        spec.Fleet.MaxVMs,
			Template: elastic.VMTemplate{
				MIPS: spec.Fleet.VMMips, PEs: spec.Fleet.VMPes,
				RAM: 512, Bw: 500, Size: 5000,
			},
			BootDelay: sim.Time(e.BootDelay),
			// Arrivals are open, not a batch: monitoring must survive idle
			// instants between them or one drained moment ends autoscaling
			// for the rest of the run.
			MonitorUntil: sim.Time(offsets[n-1]),
		}
		if scaler, err = elastic.New(broker, pol, cloud.SpaceSharedFactory, fleet); err != nil {
			return nil, err
		}
		scaler.Start()
	}

	eng.Run()

	if got := len(broker.Finished()); got != n {
		return nil, fmt.Errorf("plan: %d of %d cloudlets unfinished after run", n-got, n)
	}

	res := &RunResult{Fleet: fleet, PeakFleet: fleet, Recorder: rec, EngineEvents: eng.Fired()}
	if scaler != nil {
		size := fleet
		for _, ev := range scaler.Events() {
			switch ev.Act {
			case elastic.ScaleUp:
				res.ScaleUps++
				size++
			case elastic.ScaleDown:
				res.ScaleDowns++
				size--
			}
			if size > res.PeakFleet {
				res.PeakFleet = size
			}
		}
	}
	return res, nil
}
