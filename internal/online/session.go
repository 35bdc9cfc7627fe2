package online

import (
	"fmt"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/sim"
)

// Session is a long-lived incremental scheduling context: one engine and one
// broker survive across many batches, so placements always see the fleet's
// live residency and completion feedback accumulates in the policy instead
// of resetting per run. It is the one online driver. Run delivers a
// trace's arrivals to a session one by one (sim.Engine.FireAt, then Place)
// and drains it once at the end; the scheduling service
// (internal/service) places each batch — per arrival by an online policy,
// or wholesale from a batch scheduler's assignment — and then drains the
// session, advancing the shared simulated clock.
//
// A Session is not safe for concurrent use; callers serialize access (each
// service shard drives its session from one goroutine).
type Session struct {
	env      *cloud.Environment
	eng      *sim.Engine
	broker   *cloud.Broker
	policy   Scheduler // nil when the session only receives pre-placed work
	onFinish cloud.FinishFunc
}

// NewSession validates env and binds a fresh engine and broker to it. policy
// may be nil for sessions that only accept externally assigned placements
// via SubmitPlaced. If the policy implements Feedback it receives completion
// reports for every cloudlet the session finishes.
func NewSession(env *cloud.Environment, policy Scheduler, factory cloud.SchedulerFactory) (*Session, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if len(env.VMs) == 0 {
		return nil, fmt.Errorf("online: session over empty fleet")
	}
	eng := sim.NewEngine()
	s := &Session{env: env, eng: eng, policy: policy}
	s.broker = cloud.NewBroker(eng, env, factory)
	learner, _ := policy.(Feedback)
	s.broker.OnFinish(func(c *cloud.Cloudlet) {
		if learner != nil {
			learner.Completed(c, c.ExecTime())
		}
		if s.onFinish != nil {
			s.onFinish(c)
		}
	})
	return s, nil
}

// NewSubsetSession builds a session over the slice of base's fleet given by
// vms — a shard engine. The subset environment shares base's datacenters but
// owns only the listed VMs, with pointer identity (and therefore VM IDs)
// preserved, so per-shard results report the same VM numbering an unsharded
// run would. Each subset session gets its own engine, broker, and clock;
// sessions over disjoint subsets touch disjoint VM state and may run
// concurrently (the datacenters they share are read-only during execution).
func NewSubsetSession(base *cloud.Environment, vms []*cloud.VM, policy Scheduler, factory cloud.SchedulerFactory) (*Session, error) {
	sub, err := base.Subset(vms)
	if err != nil {
		return nil, err
	}
	return NewSession(sub, policy, factory)
}

// OnFinish registers a hook invoked at each cloudlet completion, after any
// policy feedback. It must be set before work is submitted.
func (s *Session) OnFinish(fn cloud.FinishFunc) { s.onFinish = fn }

// Now returns the session's current simulated time. The clock only moves
// forward: each Run resumes where the previous one stopped.
func (s *Session) Now() sim.Time { return s.eng.Now() }

// Environment returns the live environment the session schedules against.
func (s *Session) Environment() *cloud.Environment { return s.env }

// Place picks a VM for c with the session's policy against the fleet's
// current residency and submits it at the session's current time, so
// consecutive placements within one batch see each other's load.
func (s *Session) Place(c *cloud.Cloudlet) (*cloud.VM, error) {
	if s.policy == nil {
		return nil, fmt.Errorf("online: session has no placement policy")
	}
	vm, err := s.policy.Place(c, s.env.VMs)
	if err != nil {
		return nil, err
	}
	if err := s.SubmitPlaced(c, vm); err != nil {
		return nil, err
	}
	return vm, nil
}

// PlaceError reports a batch placement that stopped at one cloudlet. The
// Placed cloudlets before it sit in the session and finish when it runs;
// it and the rest of the batch were never submitted.
type PlaceError struct {
	Cloudlet int // ID of the cloudlet that could not be placed
	Placed   int // cloudlets of the batch placed before it
	Err      error
}

func (e *PlaceError) Error() string {
	return fmt.Sprintf("online: placing cloudlet %d (batch index %d): %v", e.Cloudlet, e.Placed, e.Err)
}

func (e *PlaceError) Unwrap() error { return e.Err }

// PlaceBatch places each cloudlet of a batch in order. An empty batch
// returns ErrEmptyBatch. A placement that fails, or a policy that panics,
// stops the batch with a *PlaceError; the session stays usable.
func (s *Session) PlaceBatch(cloudlets []*cloud.Cloudlet) (err error) {
	if len(cloudlets) == 0 {
		return ErrEmptyBatch
	}
	placed := 0
	defer func() {
		if p := recover(); p != nil {
			err = &PlaceError{Cloudlet: cloudlets[placed].ID, Placed: placed, Err: fmt.Errorf("placement panicked: %v", p)}
		}
	}()
	for _, c := range cloudlets {
		if _, err := s.Place(c); err != nil {
			return &PlaceError{Cloudlet: c.ID, Placed: placed, Err: err}
		}
		placed++
	}
	return nil
}

// SubmitPlaced hands an externally assigned (cloudlet, VM) pair to the
// session's broker at the current time — the path batch schedulers use to
// reuse one broker across batches.
func (s *Session) SubmitPlaced(c *cloud.Cloudlet, vm *cloud.VM) error {
	if c == nil || vm == nil {
		return fmt.Errorf("online: nil cloudlet or VM in placement")
	}
	if vm.Scheduler() == nil {
		return fmt.Errorf("online: VM %d has no bound cloudlet scheduler", vm.ID)
	}
	s.broker.Submit(c, vm)
	return nil
}

// Run drains every scheduled event and returns the cloudlets that finished
// since the previous Run, in completion order. The session keeps no
// reference to them afterwards, so a session that serves batch after batch
// for the life of a process holds only its unfinished work.
func (s *Session) Run() []*cloud.Cloudlet {
	s.eng.Run()
	return s.broker.TakeFinished()
}
