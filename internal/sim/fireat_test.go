package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// fired is one fired event as a differential sees it: the kernel's
// ordering key plus what the callback was (an arrival index, or -1-id for
// another event).
type fired struct {
	time     Time
	priority int
	seq      uint64
	tag      int
}

// checkpoint is the engine's state after one driver step.
type checkpoint struct {
	now     Time
	fired   uint64
	pending int
}

// arrivalScript replays one byte-driven scenario on an engine, delivering
// the arrival list either with a FireAt loop or by registering every
// arrival up front with ScheduleAt. Every decision reads the next byte (0
// once data runs out), so the two deliveries see the same decisions
// exactly when they fire the same events in the same order.
type arrivalScript struct {
	data   []byte
	pos    int
	eng    *Engine
	log    []fired
	states []checkpoint
	others []*Event
	queued int // arrivals held in the event list (up-front delivery only)
	budget int // events the callbacks may still schedule
}

func (s *arrivalScript) next() int {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return int(b)
}

// at draws a time on a half-second grid from now, now itself included, so
// scenarios are full of ties.
func (s *arrivalScript) at() Time { return s.eng.Now() + Time(s.next()%8)/2 }

var scriptPriorities = []int{PriorityRelease, PriorityDefault, PriorityAcquire, PriorityAcquire, PriorityLow}

func (s *arrivalScript) priority() int { return scriptPriorities[s.next()%len(scriptPriorities)] }

// other schedules a non-arrival event at t.
func (s *arrivalScript) other(t Time, priority int) {
	id := len(s.others)
	s.others = append(s.others, s.eng.ScheduleAt(t, priority, func() { s.act(-1 - id) }))
}

// act records a fired event and maybe schedules or cancels more work: a
// completion at the current instant at any priority, or a later event that
// may land on a later arrival's instant.
func (s *arrivalScript) act(tag int) {
	s.log[len(s.log)-1].tag = tag
	if tag >= 0 && s.queued > 0 {
		s.queued--
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

// checkpoint records the engine's state. Arrivals that the up-front
// delivery holds in its event list are not counted as pending, since a
// FireAt loop never queues them.
func (s *arrivalScript) checkpoint() {
	s.states = append(s.states, checkpoint{s.eng.Now(), s.eng.Fired(), s.eng.Pending() - s.queued})
}

// run plays the scenario: an optional advance of the idle clock, the
// arrival list, other events queued before the first arrival is delivered,
// then the arrivals one by one in (time, index) order, then the drain.
func (s *arrivalScript) run(useFireAt bool) {
	s.eng = NewEngine(WithTracer(FuncTracer(func(ev *Event) {
		s.log = append(s.log, fired{time: ev.time, priority: ev.priority})
	})))
	s.budget = 200
	nArrivals, nOthers, advance := s.next()%48, s.next()%8, Time(s.next()%4)
	arrivalPriority := PriorityAcquire
	if s.next()%4 == 0 {
		arrivalPriority = s.priority()
	}
	s.eng.RunUntil(advance)
	times := make([]Time, nArrivals)
	for i := range times {
		times[i] = s.at()
	}
	if !useFireAt {
		for i, t := range times {
			s.eng.ScheduleAt(t, arrivalPriority, func() { s.act(i) })
		}
		s.queued = len(times)
	}
	for k := 0; k < nOthers; k++ {
		s.other(s.at(), s.priority())
	}
	s.checkpoint()
	order := OrderArrivals(times)
	cur := 0
	deliver := func() { s.act(cur) }
	for p := range times {
		if useFireAt {
			cur = order.Index(p)
			s.eng.FireAt(times[cur], arrivalPriority, deliver)
		} else {
			for s.queued == len(times)-p {
				s.eng.Step()
			}
		}
		s.checkpoint()
	}
	s.eng.Run()
	s.checkpoint()
}

// diffFireAt plays data with a FireAt loop and with arrivals registered up
// front by ScheduleAt, and requires identical fired sequences and engine
// states after every delivery.
func diffFireAt(t *testing.T, data []byte) {
	t.Helper()
	want := &arrivalScript{data: data}
	want.run(false)
	got := &arrivalScript{data: data}
	got.run(true)
	if !reflect.DeepEqual(got.log, want.log) {
		t.Fatalf("data %v: FireAt loop fired\n%v\nScheduleAt up front fired\n%v", data, got.log, want.log)
	}
	if !reflect.DeepEqual(got.states, want.states) {
		t.Fatalf("data %v: FireAt loop states %+v, ScheduleAt up front states %+v", data, got.states, want.states)
	}
}

// TestFireAtMatchesScheduleAt is the differential: on random scenarios
// (unsorted and duplicate times, times equal to now, events queued before
// the first delivery and tied with arrivals, callbacks that schedule
// completions at the current instant at every priority, or cancel), a
// FireAt loop fires exactly what ScheduleAt calls for every arrival, made
// before anything else was queued, fire, and agrees on Now, Fired and
// Pending after every delivery.
func TestFireAtMatchesScheduleAt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 600; k++ {
		data := make([]byte, 64+r.Intn(256))
		r.Read(data)
		diffFireAt(t, data)
	}
}

func FuzzFireAt(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{40, 2, 1, 0, 7, 0, 1, 2, 3, 4, 5, 6, 7, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) { diffFireAt(t, data) })
}

// TestFireAtPendingCountsQueuedOnly: a delivered arrival never enters the
// event list, so Pending counts only queued events, and FireAt fires the
// events before its arrival and leaves the rest queued.
func TestFireAtPendingCountsQueuedOnly(t *testing.T) {
	e := NewEngine()
	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }
	e.ScheduleAt(2, PriorityRelease, note("release"))
	e.ScheduleAt(2, PriorityAcquire, note("acquire"))
	e.ScheduleAt(2, PriorityLow, note("low"))
	e.FireAt(2, PriorityAcquire, note("arrival"))
	if want := []string{"release", "arrival"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	if e.Now() != 2 || e.Fired() != 2 || e.Pending() != 2 {
		t.Fatalf("Now %v, Fired %d, Pending %d; want 2, 2, 2", e.Now(), e.Fired(), e.Pending())
	}
	e.Run()
	if want := []string{"release", "arrival", "acquire", "low"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
}

// panicOf returns the value fn panics with, or nil.
func panicOf(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestFireAtRejectsInvalidTimes: NaN and before-now times panic with
// ScheduleAt's message, before anything fires.
func TestFireAtRejectsInvalidTimes(t *testing.T) {
	for _, bad := range []Time{math.NaN(), 1} {
		e := NewEngine()
		e.RunUntil(2)
		e.ScheduleAt(2, PriorityRelease, func() { t.Error("event fired by a rejected FireAt") })
		want := panicOf(func() { e.ScheduleAt(bad, PriorityAcquire, func() {}) })
		got := panicOf(func() { e.FireAt(bad, PriorityAcquire, func() { t.Error("rejected arrival fired") }) })
		if want == nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("time %v: FireAt panicked with %v, ScheduleAt with %v", bad, got, want)
		}
		if e.Fired() != 0 || e.Pending() != 1 || e.Now() != 2 {
			t.Fatalf("time %v: rejected FireAt left Fired %d, Pending %d, Now %v", bad, e.Fired(), e.Pending(), e.Now())
		}
	}
}

// TestOrderArrivals: the order is stable by (time, index), and sorted
// times, ties included, need no order slice at all.
func TestOrderArrivals(t *testing.T) {
	times := []Time{3, 1, 2, 1, 3, 0}
	order := OrderArrivals(times)
	got := make([]int, len(times))
	for p := range got {
		got[p] = order.Index(p)
	}
	if want := []int{5, 1, 3, 2, 0, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	sorted := []Time{0, 1, 1, 2, 3, 3}
	if allocs := testing.AllocsPerRun(10, func() { order = OrderArrivals(sorted) }); allocs != 0 || order != nil {
		t.Fatalf("sorted times: order %v, %v allocs; want nil and 0", order, allocs)
	}
	if order.Index(4) != 4 {
		t.Fatal("a nil order is not the identity")
	}
}
