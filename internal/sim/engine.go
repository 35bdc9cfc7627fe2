package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Engine drives a single simulation run. It is single-threaded by design:
// run one Engine per goroutine for parallel experiments.
type Engine struct {
	now    Time
	events eventHeap
	seq    uint64
	fired  uint64
	tracer Tracer
}

// Option configures an Engine.
type Option func(*Engine)

// WithTracer attaches a Tracer that observes every fired event.
func WithTracer(t Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// NewEngine returns an Engine at time zero.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events scheduled but not yet fired.
// Cancelled events are not counted.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule registers fn to run after delay with the given priority and
// returns the Event handle (usable with Cancel and Reschedule). Negative
// delays are an error: the kernel never travels backwards.
func (e *Engine) Schedule(delay Time, priority int, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, e.now))
	}
	return e.ScheduleAt(e.now+delay, priority, fn)
}

// ScheduleAt registers fn to run at absolute time t.
func (e *Engine) ScheduleAt(t Time, priority int, fn func()) *Event {
	e.checkTime(t)
	if fn == nil {
		panic("sim: ScheduleAt with nil callback")
	}
	e.seq++
	ev := &Event{time: t, priority: priority, seq: e.seq, fn: fn}
	e.events.push(ev)
	return ev
}

// Reschedule moves ev to fire at absolute time t, re-keying it in place if
// it is queued and queueing it again if it has fired or been cancelled.
// It takes a fresh sequence number, exactly as Cancel followed by
// ScheduleAt would, so every tie resolves as it would under that pair.
// ev must have come from Schedule or ScheduleAt on this engine.
func (e *Engine) Reschedule(ev *Event, t Time) {
	e.checkTime(t)
	e.seq++
	ev.time, ev.seq = t, e.seq
	if e.events.holds(ev) {
		e.events.fix(ev.index)
	} else {
		e.events.push(ev)
	}
}

// Cancel removes ev from the event list so it does not fire. Cancelling a
// fired or already cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if e.events.holds(ev) {
		e.events.remove(ev.index)
	}
}

func (e *Engine) checkTime(t Time) {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: ScheduleAt %v before now %v", t, e.now))
	}
}

// FireAt delivers one arrival: it fires every queued event that sorts
// before (t, priority), moves the clock to t, and runs fn there ahead of any
// event already queued at that same (t, priority). fn is counted in Fired
// and shown to the tracer like a queued event, but it never enters the
// event list. FireAt calls over a list of arrivals, in the order
// OrderArrivals returns, fire exactly what ScheduleAt calls for all of
// them, made before anything else was queued, would fire.
func (e *Engine) FireAt(t Time, priority int, fn func()) {
	e.checkTime(t)
	for len(e.events) > 0 {
		// Stop at the first event not before (t, priority); t <= time
		// here means the times are equal.
		if next := e.events[0]; t < next.time || t <= next.time && next.priority >= priority {
			break
		}
		e.Step()
	}
	e.now = t
	if e.tracer != nil {
		e.tracer.Fire(&Event{time: t, priority: priority})
	}
	fn()
	e.fired++
}

// ArrivalOrder is a delivery order for a list of arrival times: position
// p delivers the arrival at index Index(p). A nil ArrivalOrder is the
// identity.
type ArrivalOrder []int

// OrderArrivals returns the stable (time, index) order of times, the order
// a FireAt loop must deliver them in. It allocates nothing when times is
// already sorted.
func OrderArrivals(times []Time) ArrivalOrder {
	if slices.IsSorted(times) {
		return nil
	}
	order := make(ArrivalOrder, len(times))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(times[a], times[b]) })
	return order
}

// Index returns the index of the arrival delivered at position p.
func (o ArrivalOrder) Index(p int) int {
	if o == nil {
		return p
	}
	return o[p]
}

// Step fires the next event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.time
	if e.tracer != nil {
		e.tracer.Fire(ev)
	}
	ev.fn()
	e.fired++
	return true
}

// Run executes events until the queue drains and returns the final
// simulated time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with time ≤ deadline, advances the clock to
// deadline, and returns it. Events scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) Time {
	for {
		next := e.events.peek()
		if next == nil || next.time > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}
