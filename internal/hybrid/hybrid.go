// Package hybrid implements the scheduler the paper proposes as future work
// (§VII): "a hybrid scheduling algorithm in which the conditions of the
// system and environment against pre-selected requirements function as key
// elements to select a specific behavior of the scheduling algorithm. In
// order to obtain such approach, a modular solution will be designed."
//
// The modular solution here composes the three studied algorithms behind
// one Scheduler. The requirement ("objective") may be pinned — speed routes
// to ACO, cost to HBO, balance to RBS, per the paper's own conclusions about
// which algorithm wins each objective — or left on Auto, in which case the
// scheduler inspects the environment's conditions: a wide datacenter price
// spread makes cost dominate (HBO), a heterogeneous fleet makes computation
// speed dominate (ACO), and a homogeneous plant needs only cheap balanced
// spreading (RBS).
package hybrid

import (
	"fmt"

	"bioschedsim/internal/aco"
	"bioschedsim/internal/cloud"
	"bioschedsim/internal/hbo"
	"bioschedsim/internal/objective"
	"bioschedsim/internal/rbs"
	"bioschedsim/internal/sched"
)

// Objective is the pre-selected requirement driving algorithm selection.
type Objective string

// Objectives.
const (
	Auto    Objective = "auto"    // inspect the environment each batch
	Speed   Objective = "speed"   // minimize simulation time → ACO
	Money   Objective = "cost"    // minimize processing cost → HBO
	Balance Objective = "balance" // spread load cheaply → RBS
)

// Config holds the hybrid parameters.
type Config struct {
	Objective Objective
	// PriceSpread is the min→max datacenter resource-price ratio above
	// which Auto treats cost as the dominant concern. Default 2.
	PriceSpread float64
	// SpeedSpread is the min→max VM MIPS ratio above which Auto treats
	// computation speed as the dominant concern. Default 2.
	SpeedSpread float64

	// Delegate configurations; zero values use each package's defaults.
	ACO aco.Config
	HBO hbo.Config
	RBS rbs.Config
}

// DefaultConfig returns an Auto-objective hybrid with spread thresholds of 2.
func DefaultConfig() Config {
	return Config{Objective: Auto, PriceSpread: 2, SpeedSpread: 2}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	switch c.Objective {
	case Auto, Speed, Money, Balance:
	default:
		return fmt.Errorf("hybrid: unknown objective %q", c.Objective)
	}
	if c.PriceSpread < 1 || c.SpeedSpread < 1 {
		return fmt.Errorf("hybrid: spreads must be ≥ 1, got price=%v speed=%v", c.PriceSpread, c.SpeedSpread)
	}
	return nil
}

// Scheduler is the condition-driven composite scheduler.
type Scheduler struct {
	cfg Config
	aco *aco.Scheduler
	hbo *hbo.Scheduler
	rbs *rbs.Scheduler

	lastChoice string // behaviour chosen on the most recent Schedule call
}

// New returns a hybrid scheduler; zero fields fall back to defaults.
func New(cfg Config) *Scheduler {
	def := DefaultConfig()
	if cfg.Objective == "" {
		cfg.Objective = def.Objective
	}
	//schedlint:ignore floateq 0 is the documented "use default" sentinel on caller-set config, not a computed value
	if cfg.PriceSpread == 0 {
		cfg.PriceSpread = def.PriceSpread
	}
	//schedlint:ignore floateq 0 is the documented "use default" sentinel on caller-set config, not a computed value
	if cfg.SpeedSpread == 0 {
		cfg.SpeedSpread = def.SpeedSpread
	}
	return &Scheduler{cfg: cfg, aco: aco.New(cfg.ACO), hbo: hbo.New(cfg.HBO), rbs: rbs.New(cfg.RBS)}
}

// Default returns an Auto-objective hybrid scheduler.
func Default() *Scheduler { return New(DefaultConfig()) }

// Config returns the effective configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "hybrid" }

// LastChoice reports which behaviour ("aco", "hbo", "rbs") the most recent
// Schedule call selected; empty before the first call.
func (s *Scheduler) LastChoice() string { return s.lastChoice }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(ctx *sched.Context) ([]sched.Assignment, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	objective := s.cfg.Objective
	if objective == Auto {
		objective = s.classify(ctx)
	}
	var delegate sched.Scheduler
	switch objective {
	case Speed:
		delegate = s.aco
	case Money:
		delegate = s.hbo
	case Balance:
		delegate = s.rbs
	default:
		return nil, fmt.Errorf("hybrid: unresolvable objective %q", objective)
	}
	s.lastChoice = delegate.Name()
	return delegate.Schedule(ctx)
}

// classify inspects the environment's conditions and picks the objective,
// implementing §VII's "conditions of the system and environment against
// pre-selected requirements".
func (s *Scheduler) classify(ctx *sched.Context) Objective {
	// Price spread across datacenters, measured on each VM's Eq. 1 rate.
	minRate, maxRate := 0.0, 0.0
	haveRate := false
	for _, vm := range ctx.VMs {
		rate := cloud.ResourceCostRate(vm)
		if rate <= 0 {
			continue
		}
		if !haveRate {
			minRate, maxRate, haveRate = rate, rate, true
			continue
		}
		if rate < minRate {
			minRate = rate
		}
		if rate > maxRate {
			maxRate = rate
		}
	}
	if haveRate && maxRate/minRate >= s.cfg.PriceSpread {
		return Money
	}
	// Compute-speed spread across the fleet, scanned over the shared layer's
	// exec-equivalence classes: the class representatives cover every
	// distinct capacity, so the spread is identical at K≤m probes.
	reps := objective.ClassesOf(ctx.VMs).Reps
	minCap, maxCap := reps[0].Capacity(), reps[0].Capacity()
	for _, vm := range reps[1:] {
		c := vm.Capacity()
		if c < minCap {
			minCap = c
		}
		if c > maxCap {
			maxCap = c
		}
	}
	if minCap > 0 && maxCap/minCap >= s.cfg.SpeedSpread {
		return Speed
	}
	return Balance
}

func init() {
	sched.Register("hybrid", func() sched.Scheduler { return Default() })
}
