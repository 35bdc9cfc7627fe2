package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestEngineRunUntilStopsAtDeadlineAfterCancel: a cancelled event before
// the deadline must not let RunUntil fire a live event past it.
func TestEngineRunUntilStopsAtDeadlineAfterCancel(t *testing.T) {
	e := NewEngine()
	early := e.Schedule(1, PriorityDefault, func() { t.Error("cancelled event fired") })
	late := false
	e.Schedule(10, PriorityDefault, func() { late = true })
	e.Cancel(early)
	if e.RunUntil(5); late || e.Now() != 5 {
		t.Fatalf("RunUntil(5) fired the t=10 event: %v, Now %v", late, e.Now())
	}
	if e.Pending() != 1 || e.Fired() != 0 {
		t.Fatalf("Pending %d, Fired %d; want 1 and 0", e.Pending(), e.Fired())
	}
}

// TestEngineReschedule: a re-keyed event fires at its new time, ties
// resolve as under Cancel+ScheduleAt (the re-keyed event takes a fresh
// seq), and fired or cancelled events can be re-armed.
func TestEngineReschedule(t *testing.T) {
	e := NewEngine()
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	a := e.Schedule(5, PriorityDefault, note("a"))
	e.Schedule(5, PriorityDefault, note("b"))
	c := e.Schedule(9, PriorityDefault, note("c"))
	e.Reschedule(a, 5) // now after b
	e.Reschedule(c, 1) // now first
	e.Run()
	if want := []string{"c", "b", "a"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}

	e = NewEngine()
	n := 0
	var tick *Event
	tick = e.Schedule(1, PriorityDefault, func() {
		if n++; n < 3 {
			e.Reschedule(tick, e.Now()+1)
		}
	})
	e.Run()
	if n != 3 || e.Now() != 3 || e.Fired() != 3 {
		t.Fatalf("self re-arm: %d firings, Now %v, Fired %d; want 3, 3, 3", n, e.Now(), e.Fired())
	}

	e = NewEngine()
	fired := false
	ev := e.Schedule(1, PriorityDefault, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // no-op
	if e.Pending() != 0 {
		t.Fatalf("Pending %d after Cancel, want 0", e.Pending())
	}
	e.Reschedule(ev, 2)
	if e.Run(); !fired || e.Now() != 2 {
		t.Fatalf("re-armed cancelled event: fired %v, Now %v", fired, e.Now())
	}
	if got := panicOf(func() { e.Reschedule(ev, 1) }); got == nil {
		t.Fatal("Reschedule before now accepted")
	}
}

// kernel is what the Reschedule differential drives: the engine, or the
// reference model. Handles are numbered in creation order; a callback
// reports its tag to the script.
type kernel interface {
	scheduleAt(t Time, priority int, handle int)
	reschedule(handle int, t Time)
	cancel(handle int)
	fireAt(t Time, priority int, arrival int)
	step() bool
	runUntil(t Time)
	now() Time
	fired() uint64
	pending() int
}

// handleTag names a scheduled event in the log; an arrival delivered by
// FireAt is logged under its non-negative arrival number.
func handleTag(h int) int { return -1 - h }

// reschedScript replays one byte-driven scenario of ScheduleAt,
// Reschedule (of queued, fired and cancelled events) and Cancel, top level
// and from inside callbacks, and of FireAt, Step and RunUntil at top
// level. Every decision reads the next byte, so two kernels see the same
// decisions exactly when they fire the same events in order.
type reschedScript struct {
	data     []byte
	pos      int
	k        kernel
	log      []fired
	states   []checkpoint
	handles  int
	arrivals int
	budget   int // events the callbacks may still schedule or re-arm
}

func (s *reschedScript) next() int {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return int(b)
}

// at draws a time on a half-second grid from now, now itself included.
func (s *reschedScript) at() Time { return s.k.now() + Time(s.next()%8)/2 }

func (s *reschedScript) priority() int { return scriptPriorities[s.next()%len(scriptPriorities)] }

func (s *reschedScript) handle() int { return s.next() % s.handles }

func (s *reschedScript) schedule(t Time) {
	s.k.scheduleAt(t, s.priority(), s.handles)
	s.handles++
}

// record logs a fired event; the kernel calls it before act.
func (s *reschedScript) record(t Time, priority int, seq uint64, tag int) {
	s.log = append(s.log, fired{time: t, priority: priority, seq: seq, tag: tag})
}

// act is every callback: it may schedule, re-arm itself or another
// handle, or cancel.
func (s *reschedScript) act(tag int) {
	op := s.next() % 8
	if op >= 1 && op <= 4 {
		if s.budget == 0 {
			return
		}
		s.budget--
	}
	switch {
	case op == 1:
		s.schedule(s.k.now()) // same instant
	case op == 2:
		s.schedule(s.at())
	case op == 3 && tag < 0:
		s.k.reschedule(-1-tag, s.at()) // re-arm the event being fired
	case op == 4 && s.handles > 0:
		s.k.reschedule(s.handle(), s.at())
	case op == 5 && s.handles > 0:
		s.k.cancel(s.handle())
	}
}

func (s *reschedScript) checkpoint() {
	s.states = append(s.states, checkpoint{s.k.now(), s.k.fired(), s.k.pending()})
}

// run plays up to 256 top-level operations, checkpointing after each, and
// then drains the kernel.
func (s *reschedScript) run(k kernel) {
	s.k, s.budget = k, 200
	for ops := 0; ops < 256 && s.pos < len(s.data); ops++ {
		switch op := s.next() % 8; {
		case op == 0 || op == 7:
			s.schedule(s.at())
		case op == 1 && s.handles > 0:
			s.k.reschedule(s.handle(), s.at())
		case op == 2 && s.handles > 0:
			s.k.cancel(s.handle())
		case op == 3 || op == 6:
			s.k.fireAt(s.at(), s.priority(), s.arrivals)
			s.arrivals++
		case op == 4:
			s.k.step()
		case op == 5:
			s.k.runUntil(s.at())
		}
		s.checkpoint()
	}
	for s.k.step() {
	}
	s.checkpoint()
}

// engineKernel drives an Engine.
type engineKernel struct {
	s       *reschedScript
	e       *Engine
	handles []*Event
}

func newEngineKernel(s *reschedScript) *engineKernel {
	k := &engineKernel{s: s}
	k.e = NewEngine(WithTracer(FuncTracer(func(ev *Event) {
		s.log = append(s.log, fired{time: ev.time, priority: ev.priority, seq: ev.seq})
	})))
	return k
}

func (k *engineKernel) fire(tag int) {
	k.s.log[len(k.s.log)-1].tag = tag
	k.s.act(tag)
}

func (k *engineKernel) scheduleAt(t Time, priority int, h int) {
	k.handles = append(k.handles, k.e.ScheduleAt(t, priority, func() { k.fire(handleTag(h)) }))
}
func (k *engineKernel) reschedule(h int, t Time) { k.e.Reschedule(k.handles[h], t) }
func (k *engineKernel) cancel(h int)             { k.e.Cancel(k.handles[h]) }
func (k *engineKernel) fireAt(t Time, priority int, arrival int) {
	k.e.FireAt(t, priority, func() { k.fire(arrival) })
}
func (k *engineKernel) step() bool      { return k.e.Step() }
func (k *engineKernel) runUntil(t Time) { k.e.RunUntil(t) }
func (k *engineKernel) now() Time       { return k.e.Now() }
func (k *engineKernel) fired() uint64   { return k.e.Fired() }
func (k *engineKernel) pending() int    { return k.e.Pending() }

// refEvent is one entry of the reference model's flat event list.
type refEvent struct {
	time     Time
	priority int
	seq      uint64
	tag      int
	live     bool
}

// refKernel is the reference model: a flat slice scanned for the minimum
// (time, priority, seq), with lazily cancelled entries. Reschedule is
// Cancel followed by a fresh entry; FireAt steps while the earliest entry
// sorts before (t, priority) and then fires the arrival, which never gets
// an entry or a seq.
type refKernel struct {
	s       *reschedScript
	clock   Time
	seq     uint64
	nfired  uint64
	events  []*refEvent
	handles []*refEvent
}

func (k *refKernel) add(t Time, priority int, tag int) *refEvent {
	k.seq++
	ev := &refEvent{time: t, priority: priority, seq: k.seq, tag: tag, live: true}
	k.events = append(k.events, ev)
	return ev
}

func (k *refKernel) scheduleAt(t Time, priority int, h int) {
	k.handles = append(k.handles, k.add(t, priority, handleTag(h)))
}
func (k *refKernel) reschedule(h int, t Time) {
	k.cancel(h)
	k.handles[h] = k.add(t, k.handles[h].priority, handleTag(h))
}
func (k *refKernel) cancel(h int) { k.handles[h].live = false }
func (k *refKernel) fireAt(t Time, priority int, arrival int) {
	for {
		ev := k.earliest()
		if ev == nil || ev.time > t || ev.time == t && ev.priority >= priority {
			break
		}
		k.step()
	}
	k.clock = t
	k.s.record(t, priority, 0, arrival)
	k.s.act(arrival)
	k.nfired++
}

// earliest scans for the minimum live entry, or nil.
func (k *refKernel) earliest() *refEvent {
	var best *refEvent
	for _, ev := range k.events {
		if !ev.live {
			continue
		}
		if best == nil || ev.time < best.time || ev.time == best.time && (ev.priority < best.priority || ev.priority == best.priority && ev.seq < best.seq) {
			best = ev
		}
	}
	return best
}

func (k *refKernel) step() bool {
	ev := k.earliest()
	if ev == nil {
		return false
	}
	ev.live = false
	k.clock = ev.time
	k.s.record(ev.time, ev.priority, ev.seq, ev.tag)
	k.s.act(ev.tag)
	k.nfired++
	return true
}

func (k *refKernel) runUntil(t Time) {
	for {
		if ev := k.earliest(); ev == nil || ev.time > t {
			break
		}
		k.step()
	}
	if k.clock < t {
		k.clock = t
	}
}

func (k *refKernel) now() Time     { return k.clock }
func (k *refKernel) fired() uint64 { return k.nfired }
func (k *refKernel) pending() int {
	n := 0
	for _, ev := range k.events {
		if ev.live {
			n++
		}
	}
	return n
}

// diffReschedule plays data on the engine and on the reference model and
// requires identical fired sequences and engine states.
func diffReschedule(t *testing.T, data []byte) {
	t.Helper()
	want := &reschedScript{data: data}
	want.run(&refKernel{s: want})
	got := &reschedScript{data: data}
	got.run(newEngineKernel(got))
	if !reflect.DeepEqual(got.log, want.log) {
		t.Fatalf("data %v: engine fired\n%v\nreference fired\n%v", data, got.log, want.log)
	}
	if !reflect.DeepEqual(got.states, want.states) {
		t.Fatalf("data %v: engine states %+v, reference states %+v", data, got.states, want.states)
	}
}

// TestRescheduleMatchesReference is the differential on random scenarios:
// the engine's indexed heap fires exactly what the reference model fires
// and agrees on Now, Fired and Pending after every operation.
func TestRescheduleMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 600; k++ {
		data := make([]byte, 32+r.Intn(256))
		r.Read(data)
		diffReschedule(t, data)
	}
}

func FuzzReschedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 1, 0, 2, 1, 1, 0, 2, 3, 2, 1, 2, 2, 4, 4, 3, 1, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) { diffReschedule(t, data) })
}
