package plan

import (
	"math/rand"
	"testing"

	"bioschedsim/internal/cloud"
)

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
