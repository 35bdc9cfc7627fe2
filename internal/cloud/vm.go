package cloud

import (
	"fmt"

	"bioschedsim/internal/sim"
)

// VM is a virtual machine (Table III/V characteristics). Its compute
// capacity is MIPS × PEs; RAM/Bw/Size are reservations charged against the
// host and priced by the owning datacenter.
type VM struct {
	ID   int
	MIPS float64 // per-PE million instructions per second (vmMips)
	PEs  int     // processing elements (vmPesNumber)
	RAM  float64 // MB (vmRam)
	Bw   float64 // Mbps (vmBw)
	Size float64 // image size, MB (vmSize)

	Host      *Host             // set by allocation
	scheduler CloudletScheduler // execution engine for resident cloudlets
	resident  int               // the bound scheduler's Resident(), kept by it
}

// NewVM returns a VM with the given identity and capacity.
func NewVM(id int, mips float64, pes int, ram, bw, size float64) *VM {
	if mips <= 0 || pes <= 0 {
		panic(fmt.Sprintf("cloud: VM %d with invalid capacity mips=%v pes=%d", id, mips, pes))
	}
	return &VM{ID: id, MIPS: mips, PEs: pes, RAM: ram, Bw: bw, Size: size}
}

// Capacity returns the VM's total compute capacity in MIPS.
func (v *VM) Capacity() float64 { return v.MIPS * float64(v.PEs) }

// Datacenter returns the datacenter hosting the VM, or nil before allocation.
func (v *VM) Datacenter() *Datacenter {
	if v.Host == nil {
		return nil
	}
	return v.Host.Datacenter
}

// Scheduler returns the VM's cloudlet scheduler, or nil before the broker
// binds one.
func (v *VM) Scheduler() CloudletScheduler { return v.scheduler }

// bind attaches a cloudlet scheduler and seeds the residency field from
// it; called by the broker at run start.
func (v *VM) bind(s CloudletScheduler) { v.scheduler, v.resident = s, s.Resident() }

// setResident records n as the VM's residency if s is still its bound
// scheduler: a scheduler the VM was rebound away from must not overwrite
// its successor's count.
func (v *VM) setResident(s CloudletScheduler, n int) {
	if v.scheduler == s {
		v.resident = n
	}
}

// QueuedOrRunning returns the number of cloudlets currently resident on the
// VM (queued plus executing), 0 before a scheduler is bound. Schedulers
// that balance on load read this once per VM per arrival, so it is a field
// read: the bound scheduler assigns the field from its own count at every
// step that changes that count, and a scheduler the VM has been rebound
// away from no longer writes it.
func (v *VM) QueuedOrRunning() int { return v.resident }

// EstimateExecTime returns the idealized execution time of a cloudlet on
// this VM assuming it runs alone: length / capacity, plus input staging time
// over the VM's bandwidth. This is the d_ij quantity of the paper's Eq. 6.
func (v *VM) EstimateExecTime(c *Cloudlet) sim.Time {
	t := c.Length / v.Capacity()
	if v.Bw > 0 {
		t += c.FileSize / v.Bw
	}
	return t
}
