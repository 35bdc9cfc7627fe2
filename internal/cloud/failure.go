package cloud

import (
	"fmt"

	"bioschedsim/internal/sim"
)

// Failure injection: VMs can be killed mid-run, interrupting their resident
// cloudlets. A FailoverPolicy decides where interrupted work migrates;
// progress made before the failure is retained (see CloudletScheduler.Drain).
// This is the substrate the robustness tests and the elasticity extension
// build on — the paper's §I motivates schedulers that "adapt to changes in
// the environment".

// FailoverPolicy picks a replacement VM for an interrupted cloudlet from
// the healthy fleet. Returning nil abandons the cloudlet (it is recorded as
// lost).
type FailoverPolicy func(c *Cloudlet, healthy []*VM) *VM

// LeastLoadedFailover migrates each interrupted cloudlet to the healthy VM
// with the fewest resident cloudlets.
func LeastLoadedFailover(c *Cloudlet, healthy []*VM) *VM {
	var best *VM
	for _, vm := range healthy {
		if best == nil || vm.QueuedOrRunning() < best.QueuedOrRunning() {
			best = vm
		}
	}
	return best
}

// FastestFailover migrates to the healthy VM with the highest capacity.
func FastestFailover(c *Cloudlet, healthy []*VM) *VM {
	var best *VM
	for _, vm := range healthy {
		if best == nil || vm.Capacity() > best.Capacity() {
			best = vm
		}
	}
	return best
}

// Lost returns cloudlets abandoned because no failover target existed.
func (b *Broker) Lost() []*Cloudlet { return b.lost }

// Migrations returns the number of cloudlets moved by failure handling.
func (b *Broker) Migrations() int { return b.migrations }

// FailVM schedules a failure of vm at absolute simulated time at. When it
// fires, the VM's resident cloudlets are drained (progress retained) and
// resubmitted per policy; the VM accepts no further work through the
// broker. Returns an error if the VM is not part of the broker's
// environment.
func (b *Broker) FailVM(vm *VM, at sim.Time, policy FailoverPolicy) error {
	if vm.Scheduler() == nil {
		return fmt.Errorf("cloud: FailVM: VM %d has no bound scheduler", vm.ID)
	}
	owned := false
	for _, v := range b.env.VMs {
		if v == vm {
			owned = true
			break
		}
	}
	if !owned {
		return fmt.Errorf("cloud: FailVM: VM %d not in broker environment", vm.ID)
	}
	if policy == nil {
		policy = LeastLoadedFailover
	}
	b.eng.ScheduleAt(at, sim.PriorityHigh, func() {
		if b.failed[vm] {
			return
		}
		b.failed[vm] = true
		drained := vm.Scheduler().Drain()
		healthy := b.healthyVMs()
		for _, c := range drained {
			target := policy(c, healthy)
			if target == nil {
				b.lost = append(b.lost, c)
				continue
			}
			b.migrations++
			target.Scheduler().Submit(c)
		}
	})
	return nil
}

// healthyVMs returns the environment's VMs that have not failed.
func (b *Broker) healthyVMs() []*VM {
	var out []*VM
	for _, vm := range b.env.VMs {
		if !b.failed[vm] {
			out = append(out, vm)
		}
	}
	return out
}
