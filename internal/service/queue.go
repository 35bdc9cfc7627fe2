package service

import (
	"errors"
	"sync"
)

// ErrQueueFull is backpressure: some shard's admission queue cannot take the
// request without exceeding its bound. The HTTP layer maps it to 429 +
// Retry-After. Backpressure is per-shard: a hot shard rejects while others
// keep accepting, and the dispatcher's route-time charges steer retried
// traffic toward the shards with headroom.
var ErrQueueFull = errors.New("service: admission queue full")

// ErrTooLarge rejects a request that routes more cloudlets to one shard
// than that shard's whole queue holds. No retry can ever admit it, so the
// HTTP layer maps it to 413 with no Retry-After; the client must split it.
var ErrTooLarge = errors.New("service: request larger than a shard's admission queue")

// ErrDraining rejects work arriving after shutdown began (HTTP 503).
var ErrDraining = errors.New("service: draining, not accepting submissions")

// admission is an all-or-nothing counting gate over one shard's queue
// bound: a multi-cloudlet request either gets slots for every cloudlet it
// routes here or contributes to rejecting the request whole, so a request
// is never half-accepted. Slots are held from acceptance until the shard
// takes the cloudlet's batch off the queue to map it, so the bound covers
// both the channel and a request held back for the next batch: while the
// shard is busy mapping, the gate fills and submitters see ErrQueueFull.
// Because used ≥ channel occupancy at all times and the channel's capacity
// equals the gate's, an acquired send never blocks.
type admission struct {
	mu   sync.Mutex
	used int
	cap  int
}

func (a *admission) tryAcquire(n int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.used+n > a.cap {
		return false
	}
	a.used += n
	return true
}

func (a *admission) release(n int) {
	a.mu.Lock()
	a.used -= n
	if a.used < 0 {
		panic("service: admission release underflow")
	}
	a.mu.Unlock()
}

func (a *admission) depth() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return float64(a.used)
}
