package sim

// eventHeap is the engine's future event list: a binary min-heap of events
// ordered by (time, priority, seq). Each event records its own position, so
// a queued event can be re-keyed or removed in O(log n) without a search.
type eventHeap []*Event

// holds reports whether ev is queued in h. An event's index is only
// trusted when the slot it names still holds that event: fired and
// cancelled events keep a stale index.
func (h eventHeap) holds(ev *Event) bool {
	return ev.index < len(h) && h[ev.index] == ev
}

// peek returns the earliest event without removing it, or nil if empty.
func (h eventHeap) peek() *Event {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

// push inserts ev.
func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event. It panics on empty.
func (h *eventHeap) pop() *Event {
	if len(*h) == 0 {
		panic("sim: pop on empty event heap")
	}
	top := (*h)[0]
	h.remove(0)
	return top
}

// remove deletes the event at position i.
func (h *eventHeap) remove(i int) {
	last := len(*h) - 1
	if i != last {
		(*h)[i] = (*h)[last]
	}
	(*h)[last] = nil
	*h = (*h)[:last]
	if i < last {
		h.fix(i)
	}
}

// fix restores heap order after the key of the event at position i changed.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = ev
	ev.index = i
}

// down sifts the event at position i towards the leaves and reports
// whether it moved.
func (h eventHeap) down(i int) bool {
	ev, start, n := h[i], i, len(h)
	for {
		least := 2*i + 1
		if least >= n {
			break
		}
		if right := least + 1; right < n && h[right].before(h[least]) {
			least = right
		}
		if !h[least].before(ev) {
			break
		}
		h[i] = h[least]
		h[i].index = i
		i = least
	}
	h[i] = ev
	ev.index = i
	return i > start
}
