package online

import (
	"errors"
	"fmt"
	"math"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/sim"
)

// ErrEmptyBatch reports a Run or Session.PlaceBatch call that carried no
// cloudlets; callers use errors.Is to tell it from real failures.
var ErrEmptyBatch = errors.New("online: empty cloudlet batch")

// validArrival reports whether a is a usable arrival offset: finite and
// non-negative.
func validArrival(a float64) bool {
	return a >= 0 && !math.IsNaN(a) && !math.IsInf(a, 0)
}

// Result summarizes an online run.
type Result struct {
	Finished     []*cloud.Cloudlet
	MeanResponse sim.Time // mean (finish − arrival) across cloudlets
	MeanWait     sim.Time // mean (start − arrival)
	SimTime      sim.Time // Eq. 12 over the run
	Imbalance    float64  // Eq. 13
	Cost         float64
	EngineEvents uint64
}

// Run drives cloudlets through env with per-arrival placement: cloudlet i
// arrives at arrivals[i] seconds, scheduler.Place picks its VM using only
// the fleet's state at that instant, and completion feedback reaches
// schedulers implementing Feedback. The cloudlets must be fresh (created
// state); arrivals need not be sorted but every element must be finite and
// non-negative, and len(arrivals)==len(cloudlets). An empty batch returns
// ErrEmptyBatch.
//
// Run is a loop over one Session: it delivers each arrival in stable
// (time, index) order with sim.Engine.FireAt, places it there with
// Session.Place, and drains the session at the end.
func Run(env *cloud.Environment, scheduler Scheduler, cloudlets []*cloud.Cloudlet, arrivals []float64, factory cloud.SchedulerFactory) (*Result, error) {
	s, err := NewSession(env, scheduler, factory)
	if err != nil {
		return nil, err
	}
	if len(cloudlets) == 0 {
		return nil, ErrEmptyBatch
	}
	if len(arrivals) != len(cloudlets) {
		return nil, fmt.Errorf("online: %d arrivals for %d cloudlets", len(arrivals), len(cloudlets))
	}
	for i, a := range arrivals {
		if !validArrival(a) {
			return nil, fmt.Errorf("online: invalid arrival %v at index %d (want finite, non-negative)", a, i)
		}
	}

	var c *cloud.Cloudlet
	var placeErr error
	place := func() { _, placeErr = s.Place(c) }
	order := sim.OrderArrivals(arrivals)
	for p := range arrivals {
		i := order.Index(p)
		c = cloudlets[i]
		s.eng.FireAt(arrivals[i], sim.PriorityAcquire, place)
		if placeErr != nil {
			return nil, fmt.Errorf("online: placing cloudlet %d: %w", c.ID, placeErr)
		}
	}
	finished := s.Run()
	if len(finished) != len(cloudlets) {
		return nil, fmt.Errorf("online: %d of %d cloudlets unfinished", len(cloudlets)-len(finished), len(cloudlets))
	}

	res := &Result{Finished: finished, EngineEvents: s.eng.Fired()}
	res.SimTime = metrics.SimulationTime(finished)
	res.Imbalance = metrics.TimeImbalance(finished)
	res.Cost = metrics.ProcessingCost(finished)
	var resp, wait sim.Time
	for i, c := range cloudlets {
		resp += c.FinishTime - sim.Time(arrivals[i])
		wait += c.StartTime - sim.Time(arrivals[i])
	}
	res.MeanResponse = resp / sim.Time(len(cloudlets))
	res.MeanWait = wait / sim.Time(len(cloudlets))
	return res, nil
}
