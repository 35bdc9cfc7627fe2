package cloud

import (
	"fmt"
	"sort"

	"bioschedsim/internal/sim"
)

// lengthEps is the residual-work tolerance (in MI) below which a cloudlet is
// considered finished; it absorbs float64 drift in progress accounting.
const lengthEps = 1e-7

// CloudletScheduler executes cloudlets resident on one VM, the CloudSim
// CloudletScheduler analogue. Implementations are bound to a VM and an
// engine by the broker and report completions through a callback.
type CloudletScheduler interface {
	// Name identifies the discipline in reports.
	Name() string
	// Submit hands a cloudlet to the VM at the engine's current time.
	Submit(*Cloudlet)
	// Resident returns the number of cloudlets queued or running. The
	// package's schedulers also keep it on the bound VM, where
	// VM.QueuedOrRunning reads it without an interface call.
	Resident() int
	// Drain interrupts every resident cloudlet and returns them with their
	// progress retained (remaining work updated to the current instant).
	// The scheduler is empty afterwards; drained cloudlets are back in the
	// created state and can be resubmitted elsewhere. Used for VM-failure
	// injection and migration.
	Drain() []*Cloudlet
}

// FinishFunc is invoked (inside the engine) whenever a cloudlet completes.
type FinishFunc func(*Cloudlet)

// ---------------------------------------------------------------------------
// Time-shared

// TimeShared divides the VM's total capacity equally among all resident
// cloudlets (processor sharing): with n cloudlets resident each progresses
// at Capacity/n MIPS. This matches CloudSim's CloudletSchedulerTimeShared
// and is the paper's execution discipline.
type TimeShared struct {
	eng      *sim.Engine
	vm       *VM
	onFinish FinishFunc

	resident   []*Cloudlet
	lastUpdate sim.Time
	// next is the completion event, created on the first arm and re-armed
	// in place for the scheduler's whole life.
	next     *sim.Event
	finished []*Cloudlet // collect's scratch; nil while its callbacks run
}

// NewTimeShared returns a time-shared scheduler bound to vm on eng.
func NewTimeShared(eng *sim.Engine, vm *VM, onFinish FinishFunc) *TimeShared {
	if eng == nil || vm == nil {
		panic("cloud: NewTimeShared with nil engine or VM")
	}
	return &TimeShared{eng: eng, vm: vm, onFinish: onFinish, lastUpdate: eng.Now()}
}

// Name implements CloudletScheduler.
func (s *TimeShared) Name() string { return "time-shared" }

// Resident implements CloudletScheduler.
func (s *TimeShared) Resident() int { return len(s.resident) }

// Submit implements CloudletScheduler. Under processor sharing every
// cloudlet starts executing immediately (at a reduced rate).
func (s *TimeShared) Submit(c *Cloudlet) {
	if c.Status != CloudletCreated {
		panic(fmt.Sprintf("cloud: cloudlet %d submitted twice (status %v)", c.ID, c.Status))
	}
	s.advance()
	now := s.eng.Now()
	c.Status = CloudletRunning
	c.VM = s.vm
	c.SubmitTime = now
	c.StartTime = now
	s.resident = append(s.resident, c)
	s.reschedule() // its first collect sets the VM's residency
}

// shareMIPS returns the per-cloudlet execution rate right now.
func (s *TimeShared) shareMIPS() float64 {
	if len(s.resident) == 0 {
		return 0
	}
	return s.vm.Capacity() / float64(len(s.resident))
}

// advance retires work done since lastUpdate at the prevailing share.
func (s *TimeShared) advance() {
	now := s.eng.Now()
	elapsed := now - s.lastUpdate
	s.lastUpdate = now
	if elapsed <= 0 || len(s.resident) == 0 {
		return
	}
	done := s.shareMIPS() * elapsed
	for _, c := range s.resident {
		c.remaining -= done
	}
}

// reschedule (re-)arms the completion event for the earliest finisher and
// retires any cloudlet whose remaining work dropped within tolerance.
func (s *TimeShared) reschedule() {
	for {
		s.collect()
		if len(s.resident) == 0 {
			s.disarm()
			return
		}
		minRem := s.resident[0].remaining
		for _, c := range s.resident[1:] {
			if c.remaining < minRem {
				minRem = c.remaining
			}
		}
		now := s.eng.Now()
		at := now + minRem/s.shareMIPS()
		//schedlint:ignore floateq an eta below half an ulp of now would re-arm at now for ever: retire the earliest finishers at once
		if at != now {
			s.arm(at)
			return
		}
		for _, c := range s.resident {
			//schedlint:ignore floateq exactly the cloudlets holding the minimum remaining work are the ones whose eta rounded to now
			if c.remaining == minRem {
				c.remaining = 0
			}
		}
	}
}

// arm queues the completion event at t, creating it on first use.
func (s *TimeShared) arm(t sim.Time) {
	if s.next == nil {
		s.next = s.eng.ScheduleAt(t, sim.PriorityRelease, s.onTick)
	} else {
		s.eng.Reschedule(s.next, t)
	}
}

// disarm takes the completion event off the event list, if it is queued.
func (s *TimeShared) disarm() {
	if s.next != nil {
		s.eng.Cancel(s.next)
	}
}

// onTick fires when the earliest finisher should be done.
func (s *TimeShared) onTick() {
	s.advance()
	s.reschedule()
}

// Drain implements CloudletScheduler.
func (s *TimeShared) Drain() []*Cloudlet {
	s.advance()
	s.disarm()
	out := make([]*Cloudlet, len(s.resident))
	copy(out, s.resident)
	for i := range s.resident {
		s.resident[i] = nil
	}
	s.resident = s.resident[:0]
	s.vm.setResident(s, len(s.resident))
	for _, c := range out {
		c.interrupt()
	}
	return out
}

// collect finishes every resident cloudlet whose work is exhausted.
func (s *TimeShared) collect() {
	now := s.eng.Now()
	kept := s.resident[:0]
	finished := s.finished[:0]
	for _, c := range s.resident {
		if c.remaining <= lengthEps {
			c.remaining = 0
			c.Status = CloudletFinished
			c.FinishTime = now
			finished = append(finished, c)
		} else {
			kept = append(kept, c)
		}
	}
	// Zero the tail so finished cloudlets do not pin the backing array.
	for i := len(kept); i < len(s.resident); i++ {
		s.resident[i] = nil
	}
	s.resident = kept
	s.vm.setResident(s, len(s.resident))
	if len(finished) == 0 {
		return
	}
	// A finish callback may Submit to this VM and collect again, so the
	// scratch is detached until the callbacks are done.
	s.finished = nil
	if s.onFinish != nil {
		for _, c := range finished {
			s.onFinish(c)
		}
	}
	clear(finished) // do not pin finished cloudlets in the scratch
	s.finished = finished[:0]
}

// ---------------------------------------------------------------------------
// Space-shared

// SpaceShared grants each running cloudlet exclusive PEs at full MIPS and
// queues the overflow FIFO, matching CloudSim's CloudletSchedulerSpaceShared.
type SpaceShared struct {
	eng      *sim.Engine
	vm       *VM
	onFinish FinishFunc

	freePEs int
	running []*spaceRun // unordered; each run knows its slot
	queue   []*Cloudlet // waiting cloudlets from head on
	head    int
	spare   []*spaceRun // retired runs, reused by dispatch
}

// spaceRun tracks one executing cloudlet so it can be drained mid-flight.
// Runs are recycled: each keeps its completion event and the closure that
// event fires for the scheduler's whole life, and dispatch re-arms the
// event with Engine.Reschedule.
type spaceRun struct {
	c       *Cloudlet
	slot    int // index in running
	pes     int
	rate    float64  // MIPS while running
	started sim.Time // when this run segment began
	event   *sim.Event
	fire    func()
}

// NewSpaceShared returns a space-shared scheduler bound to vm on eng.
func NewSpaceShared(eng *sim.Engine, vm *VM, onFinish FinishFunc) *SpaceShared {
	if eng == nil || vm == nil {
		panic("cloud: NewSpaceShared with nil engine or VM")
	}
	return &SpaceShared{eng: eng, vm: vm, onFinish: onFinish, freePEs: vm.PEs}
}

// Name implements CloudletScheduler.
func (s *SpaceShared) Name() string { return "space-shared" }

// Resident implements CloudletScheduler.
func (s *SpaceShared) Resident() int { return len(s.running) + len(s.queue) - s.head }

// Submit implements CloudletScheduler.
func (s *SpaceShared) Submit(c *Cloudlet) {
	if c.Status != CloudletCreated {
		panic(fmt.Sprintf("cloud: cloudlet %d submitted twice (status %v)", c.ID, c.Status))
	}
	c.VM = s.vm
	c.SubmitTime = s.eng.Now()
	c.Status = CloudletQueued
	if s.head > 0 && len(s.queue) == cap(s.queue) && 2*s.head >= len(s.queue) {
		// The backing array is full and at least half of it is dispatched
		// slots: slide the waiting cloudlets down rather than growing it.
		n := copy(s.queue, s.queue[s.head:])
		clear(s.queue[n:])
		s.queue, s.head = s.queue[:n], 0
	}
	s.queue = append(s.queue, c)
	s.vm.setResident(s, s.Resident())
	s.dispatch()
}

// dispatch starts queued cloudlets while PEs are free.
func (s *SpaceShared) dispatch() {
	now := s.eng.Now()
	for s.head < len(s.queue) {
		c := s.queue[s.head]
		need := c.PEs
		if need > s.vm.PEs {
			// The cloudlet can never get more PEs than the VM has; run it on
			// all of them rather than deadlocking the queue.
			need = s.vm.PEs
		}
		if need > s.freePEs {
			return
		}
		s.queue[s.head] = nil
		s.head++
		s.freePEs -= need
		c.Status = CloudletRunning
		c.StartTime = now
		rate := s.vm.MIPS * float64(need)
		run := s.newRun()
		run.c, run.pes, run.rate, run.started = c, need, rate, now
		run.slot = len(s.running)
		s.running = append(s.running, run)
		if at := now + c.remaining/rate; run.event == nil {
			run.event = s.eng.ScheduleAt(at, sim.PriorityRelease, run.fire)
		} else {
			s.eng.Reschedule(run.event, at)
		}
	}
}

// newRun takes a run from the free list, or makes one with its fire
// closure bound.
func (s *SpaceShared) newRun() *spaceRun {
	if n := len(s.spare); n > 0 {
		run := s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
		return run
	}
	run := &spaceRun{}
	run.fire = func() { s.finish(run) }
	return run
}

// retire takes run out of running and onto the free list.
func (s *SpaceShared) retire(run *spaceRun) {
	last := len(s.running) - 1
	moved := s.running[last]
	s.running[run.slot] = moved
	moved.slot = run.slot
	s.running[last] = nil
	s.running = s.running[:last]
	run.c = nil
	s.spare = append(s.spare, run)
}

// finish retires one running cloudlet and refills the PEs.
func (s *SpaceShared) finish(run *spaceRun) {
	c := run.c
	s.freePEs += run.pes
	s.retire(run)
	s.vm.setResident(s, s.Resident())
	c.remaining = 0
	c.Status = CloudletFinished
	c.FinishTime = s.eng.Now()
	if s.onFinish != nil {
		s.onFinish(c)
	}
	s.dispatch()
}

// Drain implements CloudletScheduler. Running cloudlets keep the progress
// made up to now; queued cloudlets are returned untouched.
func (s *SpaceShared) Drain() []*Cloudlet {
	now := s.eng.Now()
	var out []*Cloudlet
	for _, run := range s.running {
		s.eng.Cancel(run.event)
		c := run.c
		done := run.rate * (now - run.started)
		c.remaining -= done
		if c.remaining < 0 {
			c.remaining = 0
		}
		s.freePEs += run.pes
		out = append(out, c)
		run.c = nil
		s.spare = append(s.spare, run)
	}
	clear(s.running)
	s.running = s.running[:0]
	out = append(out, s.queue[s.head:]...)
	clear(s.queue)
	s.queue, s.head = s.queue[:0], 0
	s.vm.setResident(s, s.Resident())
	for _, c := range out {
		c.interrupt()
	}
	// Deterministic order for callers that iterate (running is unordered).
	sortCloudletsByID(out)
	return out
}

// sortCloudletsByID orders a drained batch deterministically.
func sortCloudletsByID(cls []*Cloudlet) {
	sort.Slice(cls, func(i, j int) bool { return cls[i].ID < cls[j].ID })
}

// SchedulerFactory builds a cloudlet scheduler for one VM; the broker uses
// it to bind every VM at run start.
type SchedulerFactory func(eng *sim.Engine, vm *VM, onFinish FinishFunc) CloudletScheduler

// TimeSharedFactory is the SchedulerFactory for TimeShared.
func TimeSharedFactory(eng *sim.Engine, vm *VM, onFinish FinishFunc) CloudletScheduler {
	return NewTimeShared(eng, vm, onFinish)
}

// SpaceSharedFactory is the SchedulerFactory for SpaceShared.
func SpaceSharedFactory(eng *sim.Engine, vm *VM, onFinish FinishFunc) CloudletScheduler {
	return NewSpaceShared(eng, vm, onFinish)
}
