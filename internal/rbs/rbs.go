// Package rbs implements the paper's Random Biased Sampling scheduler
// (§V, Algorithm 3), a network-inspired load balancer.
//
// The VM fleet is divided into q equal groups. Group g carries a
// walk-length threshold υ_g = g+1 and a node in-degree NID_g equal to the
// number of free VMs in the group. Every incoming cloudlet draws a random
// walk-in length ω ∈ {1..q} and performs the execution test against groups
// in cyclic order: a group with free capacity accepts the cloudlet when
// ω ≥ υ_g; otherwise ω is incremented by one and the walk moves to the next
// group. Within a group, VMs are used cyclically; when every group's NID is
// exhausted all NIDs reset, starting a new balancing round.
//
// RBS inspects neither VM speed nor price — only free slots — so its
// scheduling decision is O(1) per cloudlet. The random draws behind each
// decision are independent per cloudlet and precomputed on a worker pool;
// only the execution test's shared cursor/NID bookkeeping is serial, so
// assignments are bit-identical for every pool width while remaining
// submission-order dependent. That yields the paper's
// profile: second-fastest scheduling time after the base test (Fig. 6b),
// second-best load balance (Fig. 6c), and makespan close to the base test
// with visible fluctuations caused by the random ω draws (Figs. 4a, 6a).
package rbs

import (
	"fmt"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/objective"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/xrand"
)

// Config holds the RBS parameters.
type Config struct {
	// Groups is the number of VM groups the fleet is divided into
	// (Algorithm 3's q). Zero means the default of 2 (the paper's Figure 3
	// illustration). Values larger than the fleet are clamped.
	Groups int
}

// DefaultConfig returns the two-group configuration of the paper's Figure 3.
func DefaultConfig() Config { return Config{Groups: 2} }

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Groups < 0 {
		return fmt.Errorf("rbs: Groups must be non-negative, got %d", c.Groups)
	}
	return nil
}

// Scheduler is the RBS batch scheduler.
type Scheduler struct {
	cfg Config
}

// New returns an RBS scheduler; zero Groups falls back to the default.
func New(cfg Config) *Scheduler {
	if cfg.Groups == 0 {
		cfg.Groups = DefaultConfig().Groups
	}
	return &Scheduler{cfg: cfg}
}

// Default returns an RBS scheduler with the paper's configuration.
func Default() *Scheduler { return New(DefaultConfig()) }

// Config returns the scheduler's effective configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Name implements sched.Scheduler.
func (*Scheduler) Name() string { return "rbs" }

// vmGroup is one node group of the resource graph.
type vmGroup struct {
	vms       []*cloud.VM
	threshold int // υ: walk-length threshold (group index + 1)
	nid       int // free VMs remaining this round
	cursor    int // cyclic assignment position
}

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(ctx *sched.Context) ([]sched.Assignment, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx.Rand == nil {
		return nil, fmt.Errorf("rbs: scheduler requires ctx.Rand")
	}
	q := s.cfg.Groups
	if q > len(ctx.VMs) {
		q = len(ctx.VMs)
	}
	if q < 1 {
		q = 1
	}
	// Step 1: split the fleet into q near-equal groups.
	groups := make([]*vmGroup, q)
	for g := range groups {
		groups[g] = &vmGroup{threshold: g + 1}
	}
	for i, vm := range ctx.VMs {
		groups[i%q].vms = append(groups[i%q].vms, vm)
	}
	for _, g := range groups {
		g.nid = len(g.vms) // step 2: NID = free VMs in the group
	}

	// Step 3's draws — the random walk-in length ω and the random entry
	// point ("tasks come into the servers" at a random node, §V; the source
	// of the RBS fluctuations in Figs. 4a and 6a) — are independent per
	// cloudlet: one draw off ctx.Rand seeds the batch, and cloudlet i reads
	// its pair from xrand child stream i. The fill therefore fans out across
	// the worker pool while the execution test below — a serial state
	// machine over the shared cursor/NID bookkeeping — consumes the draws in
	// submission order. Assignments stay bit-identical for every worker
	// count, yet still depend on submission order, exactly as declared in
	// the traits.
	n := len(ctx.Cloudlets)
	seed := ctx.Rand.Uint64()
	omegas := make([]int32, n)
	starts := make([]int32, n)
	workers := objective.EffectiveWorkers(int64(n), 0)
	objective.ParallelFor(workers, n, func(i int) {
		src := xrand.Stream(seed, uint64(i))
		// Modulo instead of Intn: two raw draws per cloudlet keep the stream
		// layout obvious, and the bias over small q is ~q/2⁶⁴ — far below
		// any observable effect.
		omegas[i] = int32(1 + src.Uint64()%uint64(q))
		starts[i] = int32(src.Uint64() % uint64(q))
	})

	out := make([]sched.Assignment, len(ctx.Cloudlets))
	for i, c := range ctx.Cloudlets {
		omega := int(omegas[i]) // step 3: random walk-in length
		walk := int(starts[i])
		g := s.walkToGroup(groups, &walk, omega)
		vm := g.vms[g.cursor%len(g.vms)] // step 6: cyclic within the group
		g.cursor++
		g.nid-- // step 5
		if allExhausted(groups) {
			for _, gg := range groups {
				gg.nid = len(gg.vms)
			}
		}
		out[i] = sched.Assignment{Cloudlet: c, VM: vm}
	}
	return out, nil
}

// walkToGroup performs Algorithm 3's execution test: starting from the
// shared cyclic cursor, the first non-exhausted group whose threshold the
// walk length meets accepts the cloudlet; each failed test increments ω.
func (s *Scheduler) walkToGroup(groups []*vmGroup, walk *int, omega int) *vmGroup {
	q := len(groups)
	for hops := 0; ; hops++ {
		g := groups[*walk%q]
		*walk++
		if g.nid > 0 && omega >= g.threshold {
			return g
		}
		omega++ // step: increment ω and re-test at the next node
		if hops >= 2*q {
			// ω now exceeds every threshold; only exhaustion can block, and
			// exhaustion resets are handled by the caller — accept the first
			// group with capacity to guarantee termination.
			for _, cand := range groups {
				if cand.nid > 0 {
					return cand
				}
			}
			return groups[0]
		}
	}
}

// allExhausted reports whether every group's NID reached zero.
func allExhausted(groups []*vmGroup) bool {
	for _, g := range groups {
		if g.nid > 0 {
			return false
		}
	}
	return true
}

func init() {
	sched.Register("rbs", func() sched.Scheduler { return Default() })
	// RBS consumes one random walk-in draw per submitted cloudlet, so its
	// placement — and hence makespan — depends on submission order even for
	// identical cloudlets: not permutation-invariant, so no traits.
}
