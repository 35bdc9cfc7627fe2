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
	now     Time
	events  eventHeap
	seq     uint64
	fired   uint64
	stopped bool
	tracer  Tracer
	backlog int // stream members scheduled but not yet queued
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

// Pending returns the number of events scheduled but not yet fired, every
// unfired stream member included. Cancelled events are not counted.
func (e *Engine) Pending() int { return len(e.events) + e.backlog }

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

// ScheduleStream registers fn(i) to run at times[i] for every i, in exactly
// the order that len(times) consecutive ScheduleAt calls would fire them,
// but queues only the stream's next member: the rest wait in times, so an
// arrival list costs the event list one entry, not one per arrival. The
// stream keeps times; the caller must not modify it until the last member
// has fired. Times need not be sorted. An empty slice is a no-op.
//
// Member i takes the sequence number the i-th ScheduleAt call would have
// taken, so ties with every other event resolve as they would under
// ScheduleAt. Stream members cannot be cancelled.
func (e *Engine) ScheduleStream(times []Time, priority int, fn func(i int)) {
	if len(times) == 0 {
		return
	}
	sorted := true
	for i, t := range times {
		e.checkTime(t)
		sorted = sorted && (i == 0 || times[i-1] <= t)
	}
	if fn == nil {
		panic("sim: ScheduleStream with nil callback")
	}
	s := &stream{eng: e, times: times, fn: fn, base: e.seq}
	s.ev = Event{priority: priority, fn: s.fire}
	if !sorted {
		s.order = make([]int, len(times))
		for i := range s.order {
			s.order[i] = i
		}
		slices.SortStableFunc(s.order, func(a, b int) int { return cmp.Compare(times[a], times[b]) })
	}
	e.seq += uint64(len(times))
	e.backlog += len(times) - 1
	s.push()
}

// stream is one ScheduleStream registration. Its members fire in (time,
// index) order; only the member at position next is ever queued, and it is
// queued as ev, one Event reused for the whole stream.
type stream struct {
	eng   *Engine
	times []Time
	order []int // firing position → index; nil when times is sorted
	fn    func(int)
	base  uint64 // member i has seq base+1+i
	next  int
	ev    Event
}

// push queues the member at position next.
func (s *stream) push() {
	i := s.next
	if s.order != nil {
		i = s.order[i]
	}
	s.ev.time, s.ev.seq = s.times[i], s.base+1+uint64(i)
	s.eng.events.push(&s.ev)
}

// fire runs the queued member after queueing its successor, which can
// never precede it.
func (s *stream) fire() {
	i := int(s.ev.seq - s.base - 1)
	if s.next++; s.next < len(s.times) {
		s.eng.backlog--
		s.push()
	}
	s.fn(i)
}

// Step fires the next event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	if e.stopped || len(e.events) == 0 {
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

// Run executes events until the queue drains or Stop is called, and returns
// the final simulated time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with time ≤ deadline, advances the clock to
// deadline, and returns it. Events scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) Time {
	for {
		if e.stopped {
			return e.now
		}
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

// Stop halts the run loop after the current event. Pending events remain
// queued; a stopped engine never fires again.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop was called.
func (e *Engine) Stopped() bool { return e.stopped }
