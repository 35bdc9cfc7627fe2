package cloud

import (
	"fmt"
	"math"

	"bioschedsim/internal/sim"
)

// Environment is a complete resource plant: datacenters with hosts, plus the
// VM fleet placed on them. Workload generators build Environments; brokers
// execute cloudlets on them.
type Environment struct {
	Datacenters []*Datacenter
	VMs         []*VM
}

// Hosts returns every host across all datacenters.
func (e *Environment) Hosts() []*Host {
	var out []*Host
	for _, dc := range e.Datacenters {
		out = append(out, dc.Hosts...)
	}
	return out
}

// Validate checks structural invariants: every VM placed, every host owned.
func (e *Environment) Validate() error {
	for _, dc := range e.Datacenters {
		for _, h := range dc.Hosts {
			if h.Datacenter != dc {
				return fmt.Errorf("cloud: host %d not owned by datacenter %d", h.ID, dc.ID)
			}
		}
	}
	for _, vm := range e.VMs {
		if vm.Host == nil {
			return fmt.Errorf("cloud: VM %d not placed on any host", vm.ID)
		}
	}
	return nil
}

// Broker submits an assigned batch of cloudlets to VMs and drives them to
// completion on one engine, standing in for CloudSim's DatacenterBroker.
type Broker struct {
	eng      *sim.Engine
	env      *Environment
	finished []*Cloudlet
	onFinish FinishFunc // optional user hook, called after bookkeeping

	// Failure-injection state (see failure.go).
	failed     map[*VM]bool
	lost       []*Cloudlet
	migrations int
}

// NewBroker binds every VM in env to a fresh cloudlet scheduler built by
// factory on eng and returns the broker.
func NewBroker(eng *sim.Engine, env *Environment, factory SchedulerFactory) *Broker {
	if factory == nil {
		factory = TimeSharedFactory
	}
	b := &Broker{eng: eng, env: env, failed: make(map[*VM]bool)}
	for _, vm := range env.VMs {
		vm.bind(factory(eng, vm, b.recordFinish))
	}
	return b
}

// OnFinish registers a hook invoked at each cloudlet completion, after the
// broker records it.
func (b *Broker) OnFinish(fn FinishFunc) { b.onFinish = fn }

func (b *Broker) recordFinish(c *Cloudlet) {
	b.finished = append(b.finished, c)
	if b.onFinish != nil {
		b.onFinish(c)
	}
}

// Submit hands cloudlet c to vm at the engine's current time.
func (b *Broker) Submit(c *Cloudlet, vm *VM) {
	if vm.Scheduler() == nil {
		panic(fmt.Sprintf("cloud: VM %d has no bound scheduler", vm.ID))
	}
	vm.Scheduler().Submit(c)
}

// SubmitAll submits a full assignment map (parallel slices) at the current
// time. It returns an error on length mismatch, nil entries or an unbound
// VM, and then submits nothing.
func (b *Broker) SubmitAll(cloudlets []*Cloudlet, vms []*VM) error {
	if len(cloudlets) != len(vms) {
		return fmt.Errorf("cloud: assignment length mismatch: %d cloudlets, %d VMs", len(cloudlets), len(vms))
	}
	if err := checkAssignment(cloudlets, vms, nil); err != nil {
		return err
	}
	for i, c := range cloudlets {
		b.Submit(c, vms[i])
	}
	return nil
}

// checkAssignment checks every entry of an assignment before any of it is
// submitted, so a bad entry never leaves the ones before it scheduled:
// each cloudlet and VM must be non-nil, each VM bound to a cloudlet
// scheduler, and each arrival, when arrivals is non-nil, finite and
// non-negative.
func checkAssignment(cloudlets []*Cloudlet, vms []*VM, arrivals []sim.Time) error {
	for i, c := range cloudlets {
		switch {
		case c == nil || vms[i] == nil:
			return fmt.Errorf("cloud: nil entry in assignment at index %d", i)
		case vms[i].Scheduler() == nil:
			return fmt.Errorf("cloud: VM %d at index %d has no bound scheduler", vms[i].ID, i)
		case arrivals != nil && (!(arrivals[i] >= 0) || math.IsInf(arrivals[i], 1)):
			return fmt.Errorf("cloud: invalid arrival %v at index %d (want finite, non-negative)", arrivals[i], i)
		}
	}
	return nil
}

// SubmitAt hands cloudlet c to vm after delay simulated seconds, modelling
// staging or staggered arrival.
func (b *Broker) SubmitAt(c *Cloudlet, vm *VM, delay sim.Time) {
	if vm.Scheduler() == nil {
		panic(fmt.Sprintf("cloud: VM %d has no bound scheduler", vm.ID))
	}
	b.eng.Schedule(delay, sim.PriorityAcquire, func() { vm.Scheduler().Submit(c) })
}

// SubmitAllSchedule submits an assignment with explicit per-cloudlet
// arrival times (simulated seconds from now), modelling dynamic workload
// arrival instead of the paper's batch-at-zero submission. Like SubmitAll
// it checks the whole assignment, arrivals included, before submitting
// any of it.
func (b *Broker) SubmitAllSchedule(cloudlets []*Cloudlet, vms []*VM, arrivals []sim.Time) error {
	if len(cloudlets) != len(vms) || len(cloudlets) != len(arrivals) {
		return fmt.Errorf("cloud: schedule length mismatch: %d cloudlets, %d VMs, %d arrivals",
			len(cloudlets), len(vms), len(arrivals))
	}
	if err := checkAssignment(cloudlets, vms, arrivals); err != nil {
		return err
	}
	for i, c := range cloudlets {
		b.SubmitAt(c, vms[i], arrivals[i])
	}
	return nil
}

// Finished returns completed cloudlets in completion order.
func (b *Broker) Finished() []*Cloudlet { return b.finished }

// TakeFinished returns the cloudlets completed since the previous call, in
// completion order, and forgets them, so a broker that lives for many
// batches holds only what it has not yet handed out. Finished then lists
// only completions after the last take.
func (b *Broker) TakeFinished() []*Cloudlet {
	out := b.finished
	b.finished = nil
	return out
}

// Engine returns the broker's simulation engine.
func (b *Broker) Engine() *sim.Engine { return b.eng }

// Environment returns the broker's environment (live view: elasticity
// operations mutate it).
func (b *Broker) Environment() *Environment { return b.env }

// ProvisionVM places a new VM on a host chosen by policy, binds it to a
// cloudlet scheduler built by factory, and adds it to the environment —
// the elastic scale-up primitive (§II's "new instances are instantiated").
func (b *Broker) ProvisionVM(vm *VM, policy AllocationPolicy, factory SchedulerFactory) error {
	if vm == nil {
		return fmt.Errorf("cloud: ProvisionVM: nil VM")
	}
	if vm.Host != nil {
		return fmt.Errorf("cloud: ProvisionVM: VM %d already placed", vm.ID)
	}
	if policy == nil {
		policy = LeastLoaded{}
	}
	if factory == nil {
		factory = TimeSharedFactory
	}
	host := policy.Pick(b.env.Hosts(), vm)
	if host == nil {
		return fmt.Errorf("cloud: ProvisionVM: no host can fit VM %d (%.0f MIPS)", vm.ID, vm.Capacity())
	}
	if err := host.Place(vm); err != nil {
		return err
	}
	vm.bind(factory(b.eng, vm, b.recordFinish))
	b.env.VMs = append(b.env.VMs, vm)
	return nil
}

// ProvisionVMAfter is ProvisionVM with a boot delay: the host capacity is
// reserved immediately (the instance is "launching"), but the VM only joins
// the environment — and can only receive work — after bootDelay simulated
// seconds. Real scale-ups are not instantaneous; EC2-style instances take
// tens of seconds to boot, which is exactly the window where §II's
// threshold rules lag a burst.
func (b *Broker) ProvisionVMAfter(vm *VM, policy AllocationPolicy, factory SchedulerFactory, bootDelay sim.Time) error {
	if bootDelay < 0 {
		return fmt.Errorf("cloud: negative boot delay %v", bootDelay)
	}
	//schedlint:ignore floateq bootDelay is caller input validated non-negative; exact 0 is the documented instant-provisioning case
	if bootDelay == 0 {
		return b.ProvisionVM(vm, policy, factory)
	}
	if vm == nil {
		return fmt.Errorf("cloud: ProvisionVMAfter: nil VM")
	}
	if vm.Host != nil {
		return fmt.Errorf("cloud: ProvisionVMAfter: VM %d already placed", vm.ID)
	}
	if policy == nil {
		policy = LeastLoaded{}
	}
	if factory == nil {
		factory = TimeSharedFactory
	}
	host := policy.Pick(b.env.Hosts(), vm)
	if host == nil {
		return fmt.Errorf("cloud: ProvisionVMAfter: no host can fit VM %d (%.0f MIPS)", vm.ID, vm.Capacity())
	}
	if err := host.Place(vm); err != nil {
		return err
	}
	b.eng.Schedule(bootDelay, sim.PriorityAcquire, func() {
		vm.bind(factory(b.eng, vm, b.recordFinish))
		b.env.VMs = append(b.env.VMs, vm)
	})
	return nil
}

// DecommissionVM removes a VM from the plant: resident cloudlets are
// drained and migrated per failover (nil = least-loaded), the VM is evicted
// from its host, and it leaves the environment — the elastic scale-down
// primitive. Decommissioning the last healthy VM fails.
func (b *Broker) DecommissionVM(vm *VM, failover FailoverPolicy) error {
	idx := -1
	for i, v := range b.env.VMs {
		if v == vm {
			idx = i
			break
		}
	}
	if idx == -1 {
		return fmt.Errorf("cloud: DecommissionVM: VM %d not in environment", vm.ID)
	}
	if failover == nil {
		failover = LeastLoadedFailover
	}
	b.env.VMs = append(b.env.VMs[:idx], b.env.VMs[idx+1:]...)
	healthy := b.healthyVMs()
	if len(healthy) == 0 {
		b.env.VMs = append(b.env.VMs, vm) // restore: nowhere to migrate
		return fmt.Errorf("cloud: DecommissionVM: VM %d is the last healthy VM", vm.ID)
	}
	for _, c := range vm.Scheduler().Drain() {
		target := failover(c, healthy)
		if target == nil {
			b.lost = append(b.lost, c)
			continue
		}
		b.migrations++
		target.Scheduler().Submit(c)
	}
	if vm.Host != nil {
		if err := vm.Host.Evict(vm); err != nil {
			return err
		}
	}
	delete(b.failed, vm)
	return nil
}

// Result summarizes one executed batch.
type Result struct {
	Finished     []*Cloudlet
	MinStart     sim.Time // earliest execution start (Eq. 12's TminStartTime)
	MaxFinish    sim.Time // latest finish (Eq. 12's TmaxFinishTime)
	TotalCost    float64  // summed ProcessingCost
	EngineEvents uint64   // DES events fired, for substrate diagnostics
}

// SimulationTime returns the paper's Eq. 12 metric: the overall span from
// the earliest cloudlet start to the latest cloudlet finish.
func (r *Result) SimulationTime() sim.Time { return r.MaxFinish - r.MinStart }

// Execute is the whole-batch convenience path used by experiments: it builds
// an engine and broker over env, submits the assignment at t=0, runs the
// simulation to completion, and summarizes. The cloudlets must be freshly
// created or ResetAll-ed.
func Execute(env *Environment, factory SchedulerFactory, cloudlets []*Cloudlet, vms []*VM) (*Result, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	broker := NewBroker(eng, env, factory)
	if err := broker.SubmitAll(cloudlets, vms); err != nil {
		return nil, err
	}
	eng.Run()
	if len(broker.finished) != len(cloudlets) {
		return nil, fmt.Errorf("cloud: %d of %d cloudlets unfinished after run", len(cloudlets)-len(broker.finished), len(cloudlets))
	}
	res := &Result{Finished: broker.finished, EngineEvents: eng.Fired()}
	for i, c := range broker.finished {
		if i == 0 || c.StartTime < res.MinStart {
			res.MinStart = c.StartTime
		}
		if c.FinishTime > res.MaxFinish {
			res.MaxFinish = c.FinishTime
		}
		res.TotalCost += ProcessingCost(c, c.VM)
	}
	return res, nil
}
