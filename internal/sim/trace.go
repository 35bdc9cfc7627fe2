package sim

// Tracer observes events as the engine fires them. Tracing is on the hot
// path, so implementations should be cheap; the engine skips the call
// entirely when no tracer is attached. The *Event is valid only during
// Fire; for an arrival delivered by FireAt it is a description that was
// never queued.
type Tracer interface {
	Fire(*Event)
}

// CountingTracer tallies fired events by priority class; useful in tests and
// for sanity-checking experiment event volumes.
type CountingTracer struct {
	Total      uint64
	ByPriority map[int]uint64
}

// NewCountingTracer returns an empty CountingTracer.
func NewCountingTracer() *CountingTracer {
	return &CountingTracer{ByPriority: make(map[int]uint64)}
}

// Fire implements Tracer.
func (c *CountingTracer) Fire(e *Event) {
	c.Total++
	c.ByPriority[e.priority]++
}

// FuncTracer adapts a function to the Tracer interface.
type FuncTracer func(*Event)

// Fire implements Tracer.
func (f FuncTracer) Fire(e *Event) { f(e) }
