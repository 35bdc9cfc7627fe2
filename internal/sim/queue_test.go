package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// queueImpls enumerates the future-event-list implementations under test.
func queueImpls() map[string]func() Queue {
	return map[string]func() Queue{
		"heap":     func() Queue { return NewHeapQueue() },
		"calendar": func() Queue { return NewCalendarQueue() },
	}
}

func TestQueueOrdersByTime(t *testing.T) {
	for name, mk := range queueImpls() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			times := []Time{5, 1, 3, 2, 4, 0, 9, 7, 8, 6}
			for i, tm := range times {
				q.Push(&Event{time: tm, seq: uint64(i)})
			}
			var got []Time
			for q.Len() > 0 {
				got = append(got, q.Pop().time)
			}
			if !sort.Float64sAreSorted(got) {
				t.Fatalf("pops not sorted: %v", got)
			}
		})
	}
}

func TestQueueTieBreakPriorityThenSeq(t *testing.T) {
	for name, mk := range queueImpls() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			q.Push(&Event{time: 1, priority: PriorityAcquire, seq: 1})
			q.Push(&Event{time: 1, priority: PriorityRelease, seq: 2})
			q.Push(&Event{time: 1, priority: PriorityRelease, seq: 3})
			q.Push(&Event{time: 1, priority: PriorityHigh, seq: 4})
			want := []uint64{4, 2, 3, 1}
			for i, w := range want {
				if got := q.Pop().seq; got != w {
					t.Fatalf("pop %d: got seq %d want %d", i, got, w)
				}
			}
		})
	}
}

func TestQueuePeekMatchesPop(t *testing.T) {
	for name, mk := range queueImpls() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			r := rand.New(rand.NewSource(1))
			for i := 0; i < 200; i++ {
				q.Push(&Event{time: r.Float64() * 1000, seq: uint64(i)})
			}
			for q.Len() > 0 {
				p := q.Peek()
				got := q.Pop()
				if p != got {
					t.Fatalf("peek %v != pop %v", p.time, got.time)
				}
			}
			if q.Peek() != nil {
				t.Fatal("Peek on empty queue should return nil")
			}
		})
	}
}

func TestQueuePopEmptyPanics(t *testing.T) {
	for name, mk := range queueImpls() {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on empty Pop")
				}
			}()
			mk().Pop()
		})
	}
}

// TestQueueEquivalenceProperty drives both implementations with the same
// random interleaving of pushes and pops and demands identical output.
func TestQueueEquivalenceProperty(t *testing.T) {
	f := func(seed int64, ops []bool) bool {
		r := rand.New(rand.NewSource(seed))
		h, c := NewHeapQueue(), NewCalendarQueue()
		var seq uint64
		for _, push := range ops {
			if push || h.Len() == 0 {
				seq++
				tm := Time(r.Intn(64)) // coarse times to exercise ties
				prio := r.Intn(3) - 1
				h.Push(&Event{time: tm, priority: prio, seq: seq})
				c.Push(&Event{time: tm, priority: prio, seq: seq})
			} else {
				if h.Pop().seq != c.Pop().seq {
					return false
				}
			}
		}
		for h.Len() > 0 {
			if c.Len() == 0 || h.Pop().seq != c.Pop().seq {
				return false
			}
		}
		return c.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCalendarQueueResize stresses adaptive resizing in both directions.
func TestCalendarQueueResize(t *testing.T) {
	q := NewCalendarQueue()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		q.Push(&Event{time: r.Float64() * 1e6, seq: uint64(i)})
	}
	last := Time(-1)
	for i := 0; i < 4990; i++ {
		e := q.Pop()
		if e.time < last {
			t.Fatalf("out of order at %d: %v < %v", i, e.time, last)
		}
		last = e.time
	}
	if q.Len() != 10 {
		t.Fatalf("want 10 remaining, got %d", q.Len())
	}
}

// TestCalendarQueueMonotoneDrain checks pure FIFO behaviour for equal times.
func TestCalendarQueueMonotoneDrain(t *testing.T) {
	q := NewCalendarQueue()
	for i := 0; i < 100; i++ {
		q.Push(&Event{time: 42, seq: uint64(i)})
	}
	for i := 0; i < 100; i++ {
		if got := q.Pop().seq; got != uint64(i) {
			t.Fatalf("FIFO violated: pop %d returned seq %d", i, got)
		}
	}
}

func benchQueue(b *testing.B, mk func() Queue, spread float64) {
	r := rand.New(rand.NewSource(3))
	q := mk()
	// Steady-state hold of 1024 events.
	var seq uint64
	now := Time(0)
	for i := 0; i < 1024; i++ {
		seq++
		q.Push(&Event{time: now + r.Float64()*spread, seq: seq})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.Pop()
		now = e.time
		seq++
		q.Push(&Event{time: now + r.Float64()*spread, seq: seq})
	}
}

func BenchmarkEventQueueHeap(b *testing.B) {
	benchQueue(b, func() Queue { return NewHeapQueue() }, 100)
}
func BenchmarkEventQueueCalendar(b *testing.B) {
	benchQueue(b, func() Queue { return NewCalendarQueue() }, 100)
}

// TestCalendarQueueSlotBoundaryRounding: with this width, 4.5 falls in
// slot 13 by division while 14·width rounds to exactly 4.5. The dequeue
// walk must place 4.5 in slot 13 as the bucket index does, or it skips
// the bucket and pops the later event at 5 first.
func TestCalendarQueueSlotBoundaryRounding(t *testing.T) {
	width := Time(0.32142857142857145)
	if math.Floor(4.5/width) != 13 || 14*width != 4.5 {
		t.Fatalf("float64 rounding: ⌊4.5/width⌋ = %v, 14·width = %v; want 13 and 4.5", math.Floor(4.5/width), 14*width)
	}
	q := NewCalendarQueue()
	q.resize(16, width, 0)
	for i, tm := range []Time{4.5, 5, 4.5} {
		q.Push(&Event{time: tm, seq: uint64(i + 1)})
	}
	for _, want := range []uint64{1, 3, 2} {
		if got := q.Pop(); got.seq != want {
			t.Fatalf("popped seq %d at t=%v, want seq %d", got.seq, got.time, want)
		}
	}
}
