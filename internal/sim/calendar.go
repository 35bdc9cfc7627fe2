package sim

import "math"

// CalendarQueue is a bucketed future event list (Brown 1988). Events are
// hashed into year-cyclic time buckets; with a well-chosen bucket width the
// amortized cost of push/pop is O(1). The implementation resizes itself by
// doubling/halving the bucket count and re-estimating the width from a
// sample of queued events, following the classic adaptive scheme.
//
// It exists as an alternative to HeapQueue for the `abl-queue` ablation:
// calendar queues win on very large, smoothly distributed event populations
// and lose on small or bursty ones.
type CalendarQueue struct {
	buckets    [][]*Event
	width      Time    // width of one bucket in simulated time
	lastTime   Time    // dequeue cursor: time of the last Pop
	lastBucket int     // dequeue cursor: bucket of the last Pop
	lastSlot   float64 // dequeue cursor: slot of the last Pop
	size       int
}

// NewCalendarQueue returns an empty calendar queue with a small initial
// bucket array; it adapts as events arrive.
func NewCalendarQueue() *CalendarQueue {
	q := &CalendarQueue{}
	q.resize(2, 1.0, 0)
	return q
}

// Len implements Queue.
func (q *CalendarQueue) Len() int { return q.size }

func (q *CalendarQueue) resize(nbuckets int, width Time, startTime Time) {
	old := q.buckets
	q.buckets = make([][]*Event, nbuckets)
	q.width = width
	q.size = 0
	q.setCursor(startTime)
	for _, b := range old {
		for _, e := range b {
			q.push(e)
		}
	}
}

// Push implements Queue.
func (q *CalendarQueue) Push(e *Event) {
	q.push(e)
	if q.size > 2*len(q.buckets) && len(q.buckets) < 1<<20 {
		q.adapt(len(q.buckets) * 2)
	}
}

func (q *CalendarQueue) push(e *Event) {
	i := q.bucketIndex(e.time)
	// Insert sorted within the bucket (buckets are short by construction).
	b := q.buckets[i]
	pos := len(b)
	for pos > 0 && e.before(b[pos-1]) {
		pos--
	}
	b = append(b, nil)
	copy(b[pos+1:], b[pos:])
	b[pos] = e
	q.buckets[i] = b
	q.size++
	if e.time < q.lastTime {
		// Event scheduled before the dequeue cursor (possible with equal-time
		// high-priority inserts); rewind the cursor so Pop finds it.
		q.setCursor(e.time)
	}
}

// slot numbers the width-sized intervals of time: t falls in slot
// ⌊t/width⌋. The bucket index and the dequeue walk both derive from it, so
// they agree on which slot an event is in even where width·⌊t/width⌋ rounds
// across t.
func (q *CalendarQueue) slot(t Time) float64 { return math.Floor(t / q.width) }

func (q *CalendarQueue) bucketIndex(t Time) int {
	n := len(q.buckets)
	i := int(math.Mod(q.slot(t), float64(n)))
	if i < 0 {
		i += n
	}
	return i
}

func (q *CalendarQueue) setCursor(t Time) {
	q.lastTime = t
	q.lastBucket = q.bucketIndex(t)
	q.lastSlot = q.slot(t)
}

// adapt rebuilds the bucket array with nbuckets buckets and a width sampled
// from the current population's inter-event spacing.
func (q *CalendarQueue) adapt(nbuckets int) {
	width := q.sampleWidth()
	q.resize(nbuckets, width, q.lastTime)
}

// sampleWidth estimates a bucket width as ~3x the mean gap between the
// earliest few events, the heuristic from Brown's original paper.
func (q *CalendarQueue) sampleWidth() Time {
	const sampleMax = 25
	var times []Time
	for _, b := range q.buckets {
		for _, e := range b {
			if !e.canceled {
				times = append(times, e.time)
			}
			if len(times) >= sampleMax {
				break
			}
		}
		if len(times) >= sampleMax {
			break
		}
	}
	if len(times) < 2 {
		return q.width
	}
	minT, maxT := times[0], times[0]
	for _, t := range times[1:] {
		minT = math.Min(minT, t)
		maxT = math.Max(maxT, t)
	}
	span := maxT - minT
	if span <= 0 {
		return q.width
	}
	w := 3 * span / float64(len(times))
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return q.width
	}
	return w
}

// Peek implements Queue.
func (q *CalendarQueue) Peek() *Event {
	if q.size == 0 {
		return nil
	}
	e, _, _ := q.scan()
	return e
}

// Pop implements Queue.
func (q *CalendarQueue) Pop() *Event {
	if q.size == 0 {
		panic("sim: Pop on empty CalendarQueue")
	}
	e, bi, pos := q.scan()
	b := q.buckets[bi]
	copy(b[pos:], b[pos+1:])
	b[len(b)-1] = nil
	q.buckets[bi] = b[:len(b)-1]
	q.size--
	q.setCursor(e.time)
	if q.size > 8 && q.size < len(q.buckets)/2 {
		q.adapt(len(q.buckets) / 2)
	}
	return e
}

// scan finds the earliest event, walking buckets year by year from the
// dequeue cursor; it falls back to a full scan after one empty year.
func (q *CalendarQueue) scan() (e *Event, bucket, pos int) {
	n := len(q.buckets)
	i := q.lastBucket
	slot := q.lastSlot
	for steps := 0; steps < n; steps++ {
		if b := q.buckets[i]; len(b) > 0 && q.slot(b[0].time) <= slot {
			return b[0], i, 0
		}
		i = (i + 1) % n
		slot++
	}
	// Full scan: pick global minimum.
	var best *Event
	for bi, b := range q.buckets {
		if len(b) == 0 {
			continue
		}
		if best == nil || b[0].before(best) {
			best, bucket, pos = b[0], bi, 0
		}
	}
	return best, bucket, pos
}
