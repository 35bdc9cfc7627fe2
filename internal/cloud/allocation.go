package cloud

import "fmt"

// leastLoaded picks the host with the most available MIPS that can take
// vm, spreading load evenly across the plant; nil when no host fits. It is
// the plant's one VM placement rule (CloudSim's VmAllocationPolicy), seen
// across all datacenters so multi-datacenter setups balance globally.
func leastLoaded(hosts []*Host, vm *VM) *Host {
	var best *Host
	for _, h := range hosts {
		if !h.CanHost(vm) {
			continue
		}
		if best == nil || h.AvailableMIPS() > best.AvailableMIPS() {
			best = h
		}
	}
	return best
}

// Allocate places every VM on the least-loaded host, in order. It fails
// atomically: on the first VM that fits nowhere, already-placed VMs from
// this call are evicted and an error returned.
func Allocate(hosts []*Host, vms []*VM) error {
	placed := make([]*VM, 0, len(vms))
	for _, vm := range vms {
		h := leastLoaded(hosts, vm)
		if h == nil {
			for _, p := range placed {
				_ = p.Host.Evict(p)
			}
			return fmt.Errorf("cloud: least-loaded allocation failed: no host for VM %d (capacity %.0f MIPS)",
				vm.ID, vm.Capacity())
		}
		if err := h.Place(vm); err != nil {
			return err
		}
		placed = append(placed, vm)
	}
	return nil
}
