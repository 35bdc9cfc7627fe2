package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// fired is one fired event as the differential sees it: the kernel's
// ordering key plus what the callback was (a stream index, or -1-id for
// another event).
type fired struct {
	time     Time
	priority int
	seq      uint64
	tag      int
}

// checkpoint is the engine's state after one run call.
type checkpoint struct {
	now     Time
	fired   uint64
	pending int
}

// streamScript replays one byte-driven scenario on an engine, registering
// the arrival list either with ScheduleStream or with a ScheduleAt loop.
// Every decision reads the next byte (0 once data runs out), so the two
// registrations see the same decisions exactly when they fire the same
// events in the same order.
type streamScript struct {
	data   []byte
	pos    int
	eng    *Engine
	log    []fired
	states []checkpoint
	others []*Event
	stopAt int
	budget int // events the callbacks may still schedule
}

func (s *streamScript) next() int {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return int(b)
}

// at draws a time on a half-second grid from now, now itself included, so
// scenarios are full of ties.
func (s *streamScript) at() Time { return s.eng.Now() + Time(s.next()%8)/2 }

var scriptPriorities = []int{PriorityRelease, PriorityDefault, PriorityAcquire, PriorityAcquire, PriorityLow}

func (s *streamScript) priority() int { return scriptPriorities[s.next()%len(scriptPriorities)] }

// other schedules a non-stream event at t.
func (s *streamScript) other(t Time, priority int) {
	id := len(s.others)
	s.others = append(s.others, s.eng.ScheduleAt(t, priority, func() { s.act(-1 - id) }))
}

// act records a fired event and maybe schedules or cancels more work.
func (s *streamScript) act(tag int) {
	s.log[len(s.log)-1].tag = tag
	if tag == s.stopAt {
		s.eng.Stop()
	}
	switch s.next() % 8 {
	case 0, 1:
		if s.budget > 0 {
			s.budget--
			s.other(s.eng.Now(), s.priority()) // same instant
		}
	case 2:
		if s.budget > 0 {
			s.budget--
			s.other(s.at(), s.priority())
		}
	case 3:
		if len(s.others) > 0 {
			s.eng.Cancel(s.others[s.next()%len(s.others)])
		}
	}
}

func (s *streamScript) checkpoint() {
	s.states = append(s.states, checkpoint{s.eng.Now(), s.eng.Fired(), s.eng.Pending()})
}

// run plays the scenario: other events, an optional advance of the clock,
// the arrival list, more other events, then Run or a series of RunUntil
// deadlines.
func (s *streamScript) run(useStream bool) {
	s.eng = NewEngine(WithTracer(FuncTracer(func(ev *Event) {
		s.log = append(s.log, fired{time: ev.time, priority: ev.priority, seq: ev.seq})
	})))
	s.budget = 200
	nPre, nStream, nPost := s.next()%8, s.next()%48, s.next()%8
	advance, mode := Time(s.next()%4), s.next()%3
	s.stopAt = -1
	if b := s.next(); b < nStream && b%4 == 0 {
		s.stopAt = b
	}
	streamPriority := PriorityAcquire
	if s.next()%4 == 0 {
		streamPriority = s.priority()
	}
	for k := 0; k < nPre; k++ {
		s.other(s.at(), s.priority())
	}
	if advance > 0 {
		s.eng.RunUntil(advance)
		s.checkpoint()
	}
	times := make([]Time, nStream)
	for i := range times {
		times[i] = s.at()
	}
	if useStream {
		s.eng.ScheduleStream(times, streamPriority, s.act)
	} else {
		for i, t := range times {
			s.eng.ScheduleAt(t, streamPriority, func() { s.act(i) })
		}
	}
	s.checkpoint()
	for k := 0; k < nPost; k++ {
		s.other(s.at(), s.priority())
	}
	for k := 0; mode == 1 && k < 4; k++ {
		s.eng.RunUntil(s.at())
		s.checkpoint()
	}
	if mode == 2 {
		s.eng.Step()
		s.checkpoint()
	}
	s.eng.Run()
	s.checkpoint()
}

// diffStream plays data with a ScheduleAt loop and with ScheduleStream and
// requires identical fired sequences and engine states.
func diffStream(t *testing.T, data []byte) {
	t.Helper()
	want := &streamScript{data: data}
	want.run(false)
	got := &streamScript{data: data}
	got.run(true)
	if !reflect.DeepEqual(got.log, want.log) {
		t.Fatalf("data %v: stream fired\n%v\nScheduleAt loop fired\n%v", data, got.log, want.log)
	}
	if !reflect.DeepEqual(got.states, want.states) {
		t.Fatalf("data %v: stream states %+v, ScheduleAt loop states %+v", data, got.states, want.states)
	}
}

// TestScheduleStreamMatchesScheduleAt is the differential: on random
// scenarios (unsorted and duplicate times, times equal to now, other
// events tied with the stream before and after it is registered, callbacks
// that schedule at the current instant or cancel, Stop mid-stream, and
// RunUntil deadlines inside the stream), ScheduleStream fires exactly what
// a ScheduleAt loop fires.
func TestScheduleStreamMatchesScheduleAt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 600; k++ {
		data := make([]byte, 64+r.Intn(256))
		r.Read(data)
		diffStream(t, data)
	}
}

func FuzzScheduleStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 40, 2, 1, 1, 0, 0, 7, 0, 1, 2, 3, 4, 5, 6, 7, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) { diffStream(t, data) })
}

// TestScheduleStreamPendingCountsEveryMember: Pending counts unfired
// members that are not queued yet, through Step and Stop.
func TestScheduleStreamPendingCountsEveryMember(t *testing.T) {
	e := NewEngine()
	e.ScheduleAt(0.5, PriorityDefault, func() {})
	e.ScheduleStream([]Time{3, 1, 2, 4}, PriorityAcquire, func(i int) {
		if i == 2 {
			e.Stop()
		}
	})
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending after registration: %d, want 5", got)
	}
	if len(e.events) != 2 {
		t.Fatalf("queue holds %d events, want the other event and the stream head", len(e.events))
	}
	e.Step()
	e.Step()
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending after two steps: %d, want 3", got)
	}
	e.Run() // stops after member 2 at t=2
	if e.Now() != 2 || e.Pending() != 2 {
		t.Fatalf("after Stop: now %v, Pending %d; want 2 and 2", e.Now(), e.Pending())
	}
}

// panicOf returns the value fn panics with, or nil.
func panicOf(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestScheduleStreamRejectsInvalidTimes: NaN and before-now times panic
// with ScheduleAt's message, before anything is registered.
func TestScheduleStreamRejectsInvalidTimes(t *testing.T) {
	for _, bad := range []Time{math.NaN(), 1} {
		e := NewEngine()
		e.RunUntil(2)
		want := panicOf(func() { e.ScheduleAt(bad, PriorityAcquire, func() {}) })
		got := panicOf(func() { e.ScheduleStream([]Time{2, 3, bad, 4}, PriorityAcquire, func(int) {}) })
		if want == nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("time %v: stream panicked with %v, ScheduleAt with %v", bad, got, want)
		}
		if e.Pending() != 0 || e.seq != 0 {
			t.Fatalf("time %v: rejected stream left Pending %d, seq %d", bad, e.Pending(), e.seq)
		}
	}
	if got := panicOf(func() { NewEngine().ScheduleStream([]Time{0}, 0, nil) }); got == nil {
		t.Fatal("nil callback accepted")
	}
}

// TestScheduleStreamEmptyIsNoop: an empty stream schedules nothing and
// takes no sequence numbers.
func TestScheduleStreamEmptyIsNoop(t *testing.T) {
	e := NewEngine()
	e.ScheduleStream(nil, PriorityAcquire, nil)
	e.ScheduleStream([]Time{}, PriorityAcquire, func(int) { t.Fatal("empty stream fired") })
	if e.Pending() != 0 {
		t.Fatalf("Pending %d after empty streams", e.Pending())
	}
	if ev := e.ScheduleAt(0, 0, func() {}); ev.seq != 1 {
		t.Fatalf("first event after empty streams has seq %d, want 1", ev.seq)
	}
	e.Run()
	if e.Fired() != 1 {
		t.Fatalf("fired %d, want 1", e.Fired())
	}
}
