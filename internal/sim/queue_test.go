package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// queueImpls enumerates the future-event-list implementations under test.
func queueImpls() map[string]func() *eventHeap {
	return map[string]func() *eventHeap{
		"heap": func() *eventHeap { return &eventHeap{} },
	}
}

func TestQueueOrdersByTime(t *testing.T) {
	for name, mk := range queueImpls() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			times := []Time{5, 1, 3, 2, 4, 0, 9, 7, 8, 6}
			for i, tm := range times {
				q.push(&Event{time: tm, seq: uint64(i)})
			}
			var got []Time
			for len(*q) > 0 {
				got = append(got, q.pop().time)
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
			q.push(&Event{time: 1, priority: PriorityAcquire, seq: 1})
			q.push(&Event{time: 1, priority: PriorityRelease, seq: 2})
			q.push(&Event{time: 1, priority: PriorityRelease, seq: 3})
			q.push(&Event{time: 1, priority: PriorityHigh, seq: 4})
			want := []uint64{4, 2, 3, 1}
			for i, w := range want {
				if got := q.pop().seq; got != w {
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
				q.push(&Event{time: r.Float64() * 1000, seq: uint64(i)})
			}
			for len(*q) > 0 {
				p := q.peek()
				got := q.pop()
				if p != got {
					t.Fatalf("peek %v != pop %v", p.time, got.time)
				}
			}
			if q.peek() != nil {
				t.Fatal("peek on empty queue should return nil")
			}
		})
	}
}

func TestQueuePopEmptyPanics(t *testing.T) {
	for name, mk := range queueImpls() {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on empty pop")
				}
			}()
			mk().pop()
		})
	}
}

// TestQueueEquivalenceProperty drives the heap and a linear scan for the
// minimum with the same random interleaving of pushes, pops, removals and
// re-keys, and demands identical output.
func TestQueueEquivalenceProperty(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		r := rand.New(rand.NewSource(seed))
		h := &eventHeap{}
		var ref []*Event
		var seq uint64
		take := func(i int) *Event {
			ev := ref[i]
			ref = append(ref[:i], ref[i+1:]...)
			return ev
		}
		earliest := func() int {
			best := 0
			for i, ev := range ref {
				if ev.before(ref[best]) {
					best = i
				}
			}
			return best
		}
		for _, op := range ops {
			seq++
			switch {
			case op%4 == 0 || len(ref) == 0:
				// Coarse times exercise ties.
				ev := &Event{time: Time(r.Intn(64)), priority: r.Intn(3) - 1, seq: seq}
				h.push(ev)
				ref = append(ref, ev)
			case op%4 == 1:
				if h.pop() != take(earliest()) {
					return false
				}
			case op%4 == 2:
				ev := take(r.Intn(len(ref)))
				if !h.holds(ev) {
					return false
				}
				h.remove(ev.index)
				if h.holds(ev) {
					return false
				}
			default:
				ev := ref[r.Intn(len(ref))]
				ev.time, ev.seq = Time(r.Intn(64)), seq
				h.fix(ev.index)
			}
		}
		for len(ref) > 0 {
			if len(*h) == 0 || h.pop() != take(earliest()) {
				return false
			}
		}
		return len(*h) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func benchQueue(b *testing.B, q *eventHeap, spread float64) {
	r := rand.New(rand.NewSource(3))
	// Steady-state hold of 1024 events.
	var seq uint64
	now := Time(0)
	for i := 0; i < 1024; i++ {
		seq++
		q.push(&Event{time: now + r.Float64()*spread, seq: seq})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.pop()
		now = e.time
		seq++
		q.push(&Event{time: now + r.Float64()*spread, seq: seq})
	}
}

func BenchmarkEventQueueHeap(b *testing.B) {
	benchQueue(b, &eventHeap{}, 100)
}
