// Package ga implements a genetic-algorithm scheduler, the related-work
// baseline of [6] ("a GA scheduler that scans the entire job queue...to
// minimize the makespan of the tasks only"): chromosomes are integer
// vectors mapping each cloudlet to a VM; selection is k-tournament,
// crossover is uniform, mutation reassigns a gene to a random VM, and the
// top individuals survive unchanged (elitism).
//
// §II notes GA schedulers "are slow for Cloud due to the time to converge"
// [17] — which this implementation reproduces: its scheduling time sits
// well above the swarm algorithms at equal solution quality (see the
// abl-extensions benchmarks).
package ga

import (
	"fmt"
	"math"
	"sort"

	"bioschedsim/internal/objective"
	"bioschedsim/internal/sched"
)

// Config holds the GA parameters.
type Config struct {
	Population   int     // chromosomes per generation
	Generations  int     // evolution rounds
	MutationRate float64 // per-gene reassignment probability
	TournamentK  int     // tournament size for parent selection
	Elite        int     // chromosomes copied unchanged each generation
}

// DefaultConfig returns a conventional small-population setup.
func DefaultConfig() Config {
	return Config{Population: 40, Generations: 60, MutationRate: 0.02, TournamentK: 3, Elite: 2}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.Population <= 1:
		return fmt.Errorf("ga: Population must exceed 1, got %d", c.Population)
	case c.Generations <= 0:
		return fmt.Errorf("ga: Generations must be positive, got %d", c.Generations)
	case c.MutationRate < 0 || c.MutationRate > 1:
		return fmt.Errorf("ga: MutationRate must be in [0,1], got %v", c.MutationRate)
	case c.TournamentK <= 0 || c.TournamentK > c.Population:
		return fmt.Errorf("ga: TournamentK must be in [1,Population], got %d", c.TournamentK)
	case c.Elite < 0 || c.Elite >= c.Population:
		return fmt.Errorf("ga: Elite must be in [0,Population), got %d", c.Elite)
	}
	return nil
}

// Scheduler is the GA batch scheduler.
type Scheduler struct {
	cfg Config
}

// New returns a GA scheduler; zero fields fall back to defaults.
func New(cfg Config) *Scheduler {
	def := DefaultConfig()
	if cfg.Population == 0 {
		cfg.Population = def.Population
	}
	if cfg.Generations == 0 {
		cfg.Generations = def.Generations
	}
	//schedlint:ignore floateq 0 is the documented "use default" sentinel on caller-set config, not a computed value
	if cfg.MutationRate == 0 {
		cfg.MutationRate = def.MutationRate
	}
	if cfg.TournamentK == 0 {
		cfg.TournamentK = def.TournamentK
	}
	// Elite 0 is a valid explicit choice; keep it.
	return &Scheduler{cfg: cfg}
}

// Default returns a GA scheduler with DefaultConfig.
func Default() *Scheduler { return New(DefaultConfig()) }

// Config returns the effective configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "ga" }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(ctx *sched.Context) ([]sched.Assignment, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx.Rand == nil {
		return nil, fmt.Errorf("ga: scheduler requires ctx.Rand")
	}
	n, m := len(ctx.Cloudlets), len(ctx.VMs)
	rnd := ctx.Rand

	// All Eq. 6 estimates and makespan evaluations come from the shared
	// evaluation layer. Fitness is pure, so whole generations evaluate in one
	// batch: breeding (which consumes randomness) runs first, evaluation
	// (which consumes none) after, leaving the rand sequence — and therefore
	// the result — unchanged relative to interleaved per-child evaluation
	// while letting the batch fan out across workers. Evaluation is pure per
	// chromosome, so the pool's width never changes a result.
	mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{})
	pe := objective.NewPopEvaluator(mx, objective.Makespan)
	batch := make([][]int, 0, s.cfg.Population)
	vals := make([]float64, s.cfg.Population)

	type chromo struct {
		genes []int
		fit   float64
	}
	pop := make([]chromo, s.cfg.Population)
	batch = batch[:0]
	for p := range pop {
		genes := make([]int, n)
		for i := range genes {
			genes[i] = rnd.Intn(m)
		}
		pop[p].genes = genes
		batch = append(batch, genes)
	}
	pe.Eval(batch, vals)
	for p := range pop {
		pop[p].fit = vals[p]
	}

	tournament := func() *chromo {
		best := &pop[rnd.Intn(len(pop))]
		for k := 1; k < s.cfg.TournamentK; k++ {
			cand := &pop[rnd.Intn(len(pop))]
			if cand.fit < best.fit {
				best = cand
			}
		}
		return best
	}

	next := make([]chromo, s.cfg.Population)
	bestGenes := append([]int(nil), pop[0].genes...)
	bestFit := math.Inf(1)
	for gen := 0; gen < s.cfg.Generations; gen++ {
		sort.SliceStable(pop, func(a, b int) bool { return pop[a].fit < pop[b].fit })
		if pop[0].fit < bestFit {
			bestFit = pop[0].fit
			copy(bestGenes, pop[0].genes)
		}
		// Elitism: carry the best through unchanged.
		for e := 0; e < s.cfg.Elite; e++ {
			if next[e].genes == nil {
				next[e].genes = make([]int, n)
			}
			copy(next[e].genes, pop[e].genes)
			next[e].fit = pop[e].fit
		}
		// Breed the rest: uniform crossover + mutation.
		batch = batch[:0]
		for p := s.cfg.Elite; p < s.cfg.Population; p++ {
			ma, pa := tournament(), tournament()
			if next[p].genes == nil {
				next[p].genes = make([]int, n)
			}
			child := next[p].genes
			for i := 0; i < n; i++ {
				if rnd.Intn(2) == 0 {
					child[i] = ma.genes[i]
				} else {
					child[i] = pa.genes[i]
				}
				if rnd.Float64() < s.cfg.MutationRate {
					child[i] = rnd.Intn(m)
				}
			}
			batch = append(batch, child)
		}
		pe.Eval(batch, vals)
		for p := s.cfg.Elite; p < s.cfg.Population; p++ {
			next[p].fit = vals[p-s.cfg.Elite]
		}
		pop, next = next, pop
	}
	for p := range pop {
		if pop[p].fit < bestFit {
			bestFit = pop[p].fit
			copy(bestGenes, pop[p].genes)
		}
	}

	out := make([]sched.Assignment, n)
	for i, v := range bestGenes {
		out[i] = sched.Assignment{Cloudlet: ctx.Cloudlets[i], VM: ctx.VMs[v]}
	}
	return out, nil
}

func init() {
	sched.Register("ga", func() sched.Scheduler { return Default() })
}
