// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel is deliberately small: simulated time is a unit-agnostic
// float64 (this repository uses seconds, converting to the paper's
// milliseconds/hours at the reporting layer), events are closures scheduled at
// absolute times, and ties are broken first by an integer priority and then
// by insertion order, so runs are fully deterministic. Arrivals are not
// queued: the driver delivers each one with Engine.FireAt, in the stable
// (time, index) order OrderArrivals gives, so the event list holds live
// work, not the whole trace. The future event list is one indexed binary
// heap: every queued event knows its position, so cancelling removes it at
// once and a long-lived event (a VM's completion timer) is re-keyed in
// place instead of being replaced.
package sim

// Time is simulated time since the start of the run (seconds by convention
// in this repository).
type Time = float64

// Standard event priorities. Lower values run first at equal timestamps.
// Keeping resource release ahead of acquisition at the same instant avoids
// spurious rejections when one cloudlet finishes exactly as another arrives.
const (
	PriorityHigh    = -100 // bookkeeping that must precede everything else
	PriorityRelease = -10  // resource release / completion
	PriorityDefault = 0
	PriorityAcquire = 10  // resource acquisition / arrival
	PriorityLow     = 100 // reporting, statistics snapshots
)

// Event is a scheduled callback. It fires once per scheduling: once fired
// or cancelled it runs again only if Engine.Reschedule re-arms it.
type Event struct {
	time     Time
	priority int
	seq      uint64
	fn       func()
	index    int // position in the engine's heap while queued
}

// Time returns the simulated time at which the event fires.
func (e *Event) Time() Time { return e.time }

// Priority returns the event's tie-break priority.
func (e *Event) Priority() int { return e.priority }

// before reports whether e should fire before other, implementing the
// deterministic (time, priority, seq) ordering.
func (e *Event) before(other *Event) bool {
	//schedlint:ignore floateq comparators need a strict total order; epsilon equality is intransitive, and ties fall through to (priority, seq)
	if e.time != other.time {
		return e.time < other.time
	}
	if e.priority != other.priority {
		return e.priority < other.priority
	}
	return e.seq < other.seq
}
