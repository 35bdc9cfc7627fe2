// Package elastic implements threshold-rule autoscaling, the mechanism the
// paper's §II attributes to Amazon EC2: "through monitoring, if the load
// increases beyond a specific threshold, then new instances are
// instantiated". An Autoscaler samples the fleet's average residency on a
// fixed interval and provisions or decommissions VMs against configured
// watermarks — the rule-based baseline the bio-inspired schedulers are
// meant to improve upon.
package elastic

import (
	"fmt"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/objective"
	"bioschedsim/internal/sim"
)

// VMTemplate describes the instance type the autoscaler launches.
type VMTemplate struct {
	MIPS float64
	PEs  int
	RAM  float64
	Bw   float64
	Size float64
}

// Policy is the threshold rule set.
type Policy struct {
	// ScaleUpLoad adds a VM when average residency (cloudlets per VM)
	// exceeds it.
	ScaleUpLoad float64
	// ScaleDownLoad removes one idle VM when average residency falls below
	// it. Only completely idle VMs are removed.
	ScaleDownLoad float64
	// Interval is the monitoring period in simulated seconds.
	Interval sim.Time
	// MinVMs/MaxVMs bound the fleet.
	MinVMs, MaxVMs int
	// Template is the instance type launched on scale-up.
	Template VMTemplate
	// BootDelay is how long a scaled-up instance takes before it can accept
	// work (0 = instant). Real clouds pay tens of seconds here, which is
	// the lag window threshold autoscaling is criticized for.
	BootDelay sim.Time
	// MonitorUntil keeps monitoring alive through idle instants up to this
	// simulated time (0 = monitor only while the fleet holds cloudlets, the
	// batch behavior). Open-arrival workloads must set it to the last
	// arrival: a momentarily drained fleet between arrivals would otherwise
	// end monitoring for the rest of the run.
	MonitorUntil sim.Time
}

// Validate rejects unusable policies.
func (p Policy) Validate() error {
	switch {
	case p.Interval <= 0:
		return fmt.Errorf("elastic: Interval must be positive, got %v", p.Interval)
	case p.ScaleUpLoad <= p.ScaleDownLoad:
		return fmt.Errorf("elastic: ScaleUpLoad (%v) must exceed ScaleDownLoad (%v)", p.ScaleUpLoad, p.ScaleDownLoad)
	case p.MinVMs < 1:
		return fmt.Errorf("elastic: MinVMs must be at least 1, got %d", p.MinVMs)
	case p.MaxVMs < p.MinVMs:
		return fmt.Errorf("elastic: MaxVMs (%d) below MinVMs (%d)", p.MaxVMs, p.MinVMs)
	case p.Template.MIPS <= 0 || p.Template.PEs <= 0:
		return fmt.Errorf("elastic: template needs positive MIPS and PEs")
	case p.BootDelay < 0:
		return fmt.Errorf("elastic: BootDelay must be non-negative, got %v", p.BootDelay)
	}
	return nil
}

// Action is a scaling decision kind.
type Action int

// Actions.
const (
	ScaleUp Action = iota
	ScaleDown
)

// String implements fmt.Stringer.
func (a Action) String() string {
	if a == ScaleUp {
		return "scale-up"
	}
	return "scale-down"
}

// Event records one scaling decision.
type Event struct {
	Time sim.Time
	Act  Action
	VMID int
	Load float64 // average residency that triggered the decision
	Size int     // fleet size after the action
}

// Autoscaler monitors a broker's fleet and applies the policy.
type Autoscaler struct {
	broker  *cloud.Broker
	policy  Policy
	factory cloud.SchedulerFactory

	nextID int
	events []Event
}

// New returns an autoscaler over broker. nextID seeds fresh VM identifiers
// (use a value above the existing fleet's IDs).
func New(broker *cloud.Broker, policy Policy, factory cloud.SchedulerFactory, nextID int) (*Autoscaler, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		factory = cloud.TimeSharedFactory
	}
	return &Autoscaler{broker: broker, policy: policy, factory: factory, nextID: nextID}, nil
}

// Events returns the scaling decisions taken so far.
func (a *Autoscaler) Events() []Event { return a.events }

// Start begins periodic monitoring on the broker's engine. Monitoring
// reschedules itself while cloudlets remain in flight.
func (a *Autoscaler) Start() {
	a.broker.Engine().Schedule(a.policy.Interval, sim.PriorityLow, a.tick)
}

// load returns the fleet's average residency.
func (a *Autoscaler) load() float64 {
	vms := a.broker.Environment().VMs
	if len(vms) == 0 {
		return 0
	}
	total := 0
	for _, vm := range vms {
		total += vm.QueuedOrRunning()
	}
	return float64(total) / float64(len(vms))
}

// tick applies the threshold rules once and reschedules itself.
func (a *Autoscaler) tick() {
	env := a.broker.Environment()
	now := a.broker.Engine().Now()
	load := a.load()
	switch {
	case load > a.policy.ScaleUpLoad && len(env.VMs) < a.policy.MaxVMs:
		tmpl := a.policy.Template
		vm := cloud.NewVM(a.nextID, tmpl.MIPS, tmpl.PEs, tmpl.RAM, tmpl.Bw, tmpl.Size)
		a.nextID++
		if err := a.broker.ProvisionVM(vm, a.factory, a.policy.BootDelay); err == nil {
			a.events = append(a.events, Event{Time: now, Act: ScaleUp, VMID: vm.ID, Load: load, Size: len(env.VMs)})
			// Once the instance is up, pull work off the busiest VM so the
			// new capacity actually relieves the backlog (capacity without
			// rebalancing only helps future arrivals).
			a.broker.Engine().Schedule(a.policy.BootDelay, sim.PriorityLow, func() {
				a.rebalance(vm)
			})
		}
	case load < a.policy.ScaleDownLoad && len(env.VMs) > a.policy.MinVMs:
		// Remove one fully idle VM, if any.
		for _, vm := range env.VMs {
			if vm.QueuedOrRunning() == 0 {
				if err := a.broker.DecommissionVM(vm, nil); err == nil {
					a.events = append(a.events, Event{Time: now, Act: ScaleDown, VMID: vm.ID, Load: load, Size: len(env.VMs)})
				}
				break
			}
		}
	}
	// Keep monitoring while work remains (or arrivals are still due, when
	// the policy declares a horizon): the engine drains when no events are
	// left, so reschedule only then — otherwise monitoring would keep the
	// simulation alive forever.
	if a.busy() || now < a.policy.MonitorUntil {
		a.broker.Engine().Schedule(a.policy.Interval, sim.PriorityLow, a.tick)
	}
}

// rebalance drains the busiest VM and redistributes its resident cloudlets
// between itself and the freshly booted VM, booking by estimated execution
// time so the faster machine takes proportionally more.
func (a *Autoscaler) rebalance(fresh *cloud.VM) {
	if fresh.Scheduler() == nil {
		return // not booted: the boot event fires first at the same instant
	}
	var busiest *cloud.VM
	for _, vm := range a.broker.Environment().VMs {
		if vm == fresh {
			continue
		}
		if busiest == nil || vm.QueuedOrRunning() > busiest.QueuedOrRunning() {
			busiest = vm
		}
	}
	if busiest == nil || busiest.QueuedOrRunning() < 2 {
		return // nothing worth splitting
	}
	drained := busiest.Scheduler().Drain()
	// Cache the Eq. 6 estimates over the two candidate VMs once: the greedy
	// booking below reads each estimate up to three times (two peeks plus the
	// commit), which previously recomputed the formula every time.
	pair := []*cloud.VM{busiest, fresh}
	mx := objective.NewMatrix(drained, pair, objective.Options{})
	var loadBusiest, loadFresh float64
	for i, c := range drained {
		if loadFresh+mx.Exec(i, 1) < loadBusiest+mx.Exec(i, 0) {
			loadFresh += mx.Exec(i, 1)
			fresh.Scheduler().Submit(c)
		} else {
			loadBusiest += mx.Exec(i, 0)
			busiest.Scheduler().Submit(c)
		}
	}
}

// busy reports whether any VM still holds cloudlets.
func (a *Autoscaler) busy() bool {
	for _, vm := range a.broker.Environment().VMs {
		if vm.QueuedOrRunning() > 0 {
			return true
		}
	}
	return false
}
