// Package pso implements a discrete Particle Swarm Optimization scheduler,
// the related-work baseline the paper repeatedly cites ([18], [28], [30]):
// each particle encodes a complete cloudlet→VM mapping as an integer vector
// (one resource index per task, the encoding of [18] and [23]); velocity is
// modeled discretely as per-dimension adoption probabilities of the
// particle's personal best and the global best, the standard discrete-PSO
// relaxation surveyed in [30].
//
// The optimization objective is selectable: Makespan (Eq. 8's estimated
// makespan), Cost (the §VI-C-4 processing-cost model, the objective of
// [18]), or Combined — addressing the critique in §II that [3]'s factors
// lacked dependency by mixing both into one scalar.
package pso

import (
	"fmt"
	"math"

	"bioschedsim/internal/objective"
	"bioschedsim/internal/sched"
)

// Objective selects what a swarm minimizes.
type Objective int

// Objectives.
const (
	Makespan Objective = iota // estimated makespan (Eq. 8)
	Cost                      // processing cost (§VI-C-4)
	Combined                  // normalized sum of both
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case Makespan:
		return "makespan"
	case Cost:
		return "cost"
	case Combined:
		return "combined"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Config holds the discrete-PSO parameters.
type Config struct {
	Particles  int     // swarm size
	Iterations int     // velocity/position update rounds
	W          float64 // inertia: probability of keeping the current value
	C1         float64 // cognitive: probability of adopting the personal best
	C2         float64 // social: probability of adopting the global best
	Objective  Objective
}

// DefaultConfig returns the conventional small-swarm setup.
func DefaultConfig() Config {
	return Config{Particles: 30, Iterations: 50, W: 0.4, C1: 0.3, C2: 0.2, Objective: Makespan}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.Particles <= 0:
		return fmt.Errorf("pso: Particles must be positive, got %d", c.Particles)
	case c.Iterations <= 0:
		return fmt.Errorf("pso: Iterations must be positive, got %d", c.Iterations)
	case c.W < 0 || c.C1 < 0 || c.C2 < 0:
		return fmt.Errorf("pso: W/C1/C2 must be non-negative, got %v/%v/%v", c.W, c.C1, c.C2)
	case c.W+c.C1+c.C2 > 1:
		return fmt.Errorf("pso: W+C1+C2 must not exceed 1, got %v", c.W+c.C1+c.C2)
	}
	return nil
}

// Scheduler is the discrete-PSO batch scheduler.
type Scheduler struct {
	cfg Config
}

// New returns a PSO scheduler; zero numeric fields fall back to defaults.
func New(cfg Config) *Scheduler {
	def := DefaultConfig()
	if cfg.Particles == 0 {
		cfg.Particles = def.Particles
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = def.Iterations
	}
	//schedlint:ignore floateq 0 is the documented "use default" sentinel on caller-set config, not a computed value
	if cfg.W == 0 && cfg.C1 == 0 && cfg.C2 == 0 {
		cfg.W, cfg.C1, cfg.C2 = def.W, def.C1, def.C2
	}
	return &Scheduler{cfg: cfg}
}

// Default returns a PSO scheduler with DefaultConfig.
func Default() *Scheduler { return New(DefaultConfig()) }

// Config returns the effective configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "pso" }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(ctx *sched.Context) ([]sched.Assignment, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx.Rand == nil {
		return nil, fmt.Errorf("pso: scheduler requires ctx.Rand")
	}
	n, m := len(ctx.Cloudlets), len(ctx.VMs)
	rnd := ctx.Rand

	fit := newFitness(ctx, s.cfg.Objective)

	type particle struct {
		pos, best []int
		bestFit   float64
	}
	swarm := make([]particle, s.cfg.Particles)
	gbest := make([]int, n)
	gbestFit := math.Inf(1)
	for p := range swarm {
		pos := make([]int, n)
		for i := range pos {
			pos[i] = rnd.Intn(m)
		}
		f := fit.eval(pos)
		swarm[p] = particle{pos: pos, best: append([]int(nil), pos...), bestFit: f}
		if f < gbestFit {
			gbestFit = f
			copy(gbest, pos)
		}
	}

	for it := 0; it < s.cfg.Iterations; it++ {
		for p := range swarm {
			part := &swarm[p]
			for i := 0; i < n; i++ {
				r := rnd.Float64()
				switch {
				case r < s.cfg.W:
					// inertia: keep current value
				case r < s.cfg.W+s.cfg.C1:
					part.pos[i] = part.best[i]
				case r < s.cfg.W+s.cfg.C1+s.cfg.C2:
					part.pos[i] = gbest[i]
				default:
					part.pos[i] = rnd.Intn(m) // exploration
				}
			}
			f := fit.eval(part.pos)
			if f < part.bestFit {
				part.bestFit = f
				copy(part.best, part.pos)
			}
			if f < gbestFit {
				gbestFit = f
				copy(gbest, part.pos)
			}
		}
	}

	out := make([]sched.Assignment, n)
	for i, v := range gbest {
		out[i] = sched.Assignment{Cloudlet: ctx.Cloudlets[i], VM: ctx.VMs[v]}
	}
	return out, nil
}

// fitness evaluates positions under an Objective on the shared evaluation
// layer. The compressed matrix caches execution estimates per VM class; the
// cost matrix is only built when the objective actually reads costs, which
// the private per-algorithm matrices this replaced always paid for.
type fitness struct {
	objective Objective
	mx        *objective.Matrix
	vmBusy    []float64 // scratch for MakespanOf
	normTime  float64   // normalizers for Combined
	normCost  float64
}

func newFitness(ctx *sched.Context, obj Objective) *fitness {
	f := &fitness{
		objective: obj,
		mx: objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{
			WithCost: obj != Makespan,
		}),
		vmBusy: make([]float64, len(ctx.VMs)),
	}
	if obj == Combined {
		f.normTime, f.normCost = f.mx.Norms()
	}
	return f
}

func (f *fitness) eval(pos []int) float64 {
	switch f.objective {
	case Cost:
		return f.mx.CostOf(pos)
	case Makespan:
		return f.mx.MakespanOf(pos, f.vmBusy)
	case Combined:
		totalCost := f.mx.CostOf(pos)
		return f.mx.MakespanOf(pos, f.vmBusy)/f.normTime + totalCost/f.normCost
	default:
		panic(fmt.Sprintf("pso: unknown objective %d", int(f.objective)))
	}
}

func init() {
	sched.Register("pso", func() sched.Scheduler { return Default() })
}
