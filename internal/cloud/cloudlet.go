// Package cloud implements the cloud resource and execution model the paper
// runs its schedulers on: processing elements, hosts, virtual machines,
// cloudlets (tasks), datacenters with a pricing model, VM-to-host allocation
// policies, and time-/space-shared cloudlet execution — the CloudSim
// semantics rebuilt from scratch on the internal/sim kernel.
package cloud

import (
	"fmt"

	"bioschedsim/internal/sim"
)

// CloudletStatus tracks a cloudlet through its lifecycle.
type CloudletStatus int

// Cloudlet lifecycle states.
const (
	CloudletCreated CloudletStatus = iota
	CloudletQueued                 // submitted to a VM, waiting for capacity
	CloudletRunning
	CloudletFinished
)

// String implements fmt.Stringer.
func (s CloudletStatus) String() string {
	switch s {
	case CloudletCreated:
		return "created"
	case CloudletQueued:
		return "queued"
	case CloudletRunning:
		return "running"
	case CloudletFinished:
		return "finished"
	default:
		return fmt.Sprintf("CloudletStatus(%d)", int(s))
	}
}

// Cloudlet is a unit of work: the paper's task abstraction (Table IV/VI).
// Length is in million instructions (MI); a VM with capacity C MIPS
// dedicates some share of C to the cloudlet until Length MI have executed.
type Cloudlet struct {
	ID         int
	Length     float64 // total work, million instructions (cLength)
	PEs        int     // required processing elements (cPesNumber)
	FileSize   float64 // input size, MB (cFileSize)
	OutputSize float64 // output size, MB (cOutputSize)
	// Deadline is the absolute simulated time by which the cloudlet must
	// finish to satisfy its SLA; zero means no deadline. The paper's §I
	// lists deadlines and SLA agreements among the demands schedulers must
	// accommodate; deadline-aware scheduling is an extension here.
	Deadline sim.Time

	// Runtime state, owned by the executing VM's cloudlet scheduler.
	Status     CloudletStatus
	VM         *VM      // assigned VM (set at submission)
	SubmitTime sim.Time // when the broker handed it to the VM
	StartTime  sim.Time // when execution first received capacity
	FinishTime sim.Time // when the last instruction retired
	remaining  float64  // MI left to execute
}

// NewCloudlet returns a cloudlet with the given identity and static demands.
func NewCloudlet(id int, length float64, pes int, fileSize, outputSize float64) *Cloudlet {
	c := MakeCloudlet(id, length, pes, fileSize, outputSize)
	return &c
}

// MakeCloudlet is NewCloudlet by value, for callers that lay many cloudlets
// out in one slice (one allocation for a whole trace block) and hand out
// pointers into it.
func MakeCloudlet(id int, length float64, pes int, fileSize, outputSize float64) Cloudlet {
	if length <= 0 {
		panic(fmt.Sprintf("cloud: cloudlet %d with non-positive length %v", id, length))
	}
	if pes <= 0 {
		panic(fmt.Sprintf("cloud: cloudlet %d with non-positive PEs %d", id, pes))
	}
	return Cloudlet{
		ID:         id,
		Length:     length,
		PEs:        pes,
		FileSize:   fileSize,
		OutputSize: outputSize,
		Status:     CloudletCreated,
		remaining:  length,
	}
}

// Remaining returns the million instructions still to execute.
func (c *Cloudlet) Remaining() float64 { return c.remaining }

// ExecTime returns wall-clock (simulated) execution time: finish − start.
// It is only meaningful once the cloudlet finished.
func (c *Cloudlet) ExecTime() sim.Time {
	return c.FinishTime - c.StartTime
}

// MetDeadline reports whether a finished cloudlet satisfied its SLA; it is
// vacuously true without a deadline and false before completion.
func (c *Cloudlet) MetDeadline() bool {
	//schedlint:ignore floateq Deadline 0 is the documented "no SLA" sentinel, assigned literally and never accumulated
	if c.Deadline == 0 {
		return true
	}
	return c.Status == CloudletFinished && c.FinishTime <= c.Deadline
}

// WaitTime returns time spent queued before first receiving capacity.
func (c *Cloudlet) WaitTime() sim.Time {
	return c.StartTime - c.SubmitTime
}

// interrupt returns a drained cloudlet to the created state while keeping
// its progress (remaining work), so migration and failure recovery can
// resubmit it elsewhere without redoing finished instructions. Timestamps
// reflect the most recent placement after resubmission.
func (c *Cloudlet) interrupt() {
	c.Status = CloudletCreated
	c.VM = nil
}
