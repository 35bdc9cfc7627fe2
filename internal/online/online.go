// Package online implements event-driven (per-arrival) scheduling, the
// dynamic counterpart of the paper's static batch mapping. §I motivates
// schedulers that "adapt to changes along with defined demand"; this
// package lets cloudlets arrive over time (e.g. workload.PoissonArrivals)
// and places each one the moment it arrives, using only the fleet's
// current state — the "local knowledge" the paper's introduction calls for.
//
// There is one driver, Session. Run replays an arrival list through one
// session: it delivers each arrival in (time, index) order with
// sim.Engine.FireAt and places it there with Session.Place. The scheduling
// service places each batch through its shard's long-lived session.
//
// Three of the online policies are the natural per-arrival forms of the
// paper's algorithms: OnlineACO keeps a per-VM pheromone trail reinforced
// by completion feedback; OnlineHBO is Nakrani & Tovey's honey-bee server
// allocation (the paper's [16]), where VMs advertise profitability and
// foragers follow the waggle dance; OnlineRBS walks the VM groups exactly
// as Algorithm 3 does, which is already an online procedure.
//
// A placement runs once per arrival, so the load-aware policies price the
// fleet in one pass: each VM's residency is a field read
// (cloud.VM.QueuedOrRunning) and its Eq. 6 estimate is computed in place,
// with no per-fleet cache to validate, and the stochastic policies reuse
// their roulette row, so Place allocates nothing.
package online

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/objective"
)

// Scheduler places one arriving cloudlet at a time. Implementations may
// keep state across placements (cursors, pheromone, profitability) and
// receive completion feedback through the Feedback interface if they
// implement it.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Place returns the VM for an arriving cloudlet given the current
	// fleet. The fleet slice is never empty.
	Place(c *cloud.Cloudlet, vms []*cloud.VM) (*cloud.VM, error)
}

// Feedback is implemented by online schedulers that learn from completions.
type Feedback interface {
	// Completed reports a finished cloudlet and its execution time.
	Completed(c *cloud.Cloudlet, execSeconds float64)
}

// ---------------------------------------------------------------------------

// RoundRobin cycles the fleet, the online form of the base test.
type RoundRobin struct {
	cursor int
}

// NewRoundRobin returns an online round-robin placer.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (*RoundRobin) Name() string { return "online-rr" }

// Place implements Scheduler.
func (s *RoundRobin) Place(c *cloud.Cloudlet, vms []*cloud.VM) (*cloud.VM, error) {
	vm := vms[s.cursor%len(vms)]
	s.cursor++
	return vm, nil
}

// LeastLoaded places each arrival on the VM with the fewest resident
// cloudlets — the instantaneous-state greedy.
type LeastLoaded struct{}

// NewLeastLoaded returns an online least-loaded placer.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Scheduler.
func (*LeastLoaded) Name() string { return "online-least" }

// Place implements Scheduler.
func (*LeastLoaded) Place(c *cloud.Cloudlet, vms []*cloud.VM) (*cloud.VM, error) {
	best := vms[0]
	for _, vm := range vms[1:] {
		if vm.QueuedOrRunning() < best.QueuedOrRunning() {
			best = vm
		}
	}
	return best, nil
}

// EarliestFinish places each arrival on the VM minimizing the estimated
// completion time given current residency: (resident+1) · d(c, vm) under
// processor sharing. Ties go to the earliest VM in fleet order.
type EarliestFinish struct{}

// NewEarliestFinish returns an online earliest-finish placer.
func NewEarliestFinish() *EarliestFinish { return &EarliestFinish{} }

// Name implements Scheduler.
func (*EarliestFinish) Name() string { return "online-eft" }

// Place implements Scheduler.
func (*EarliestFinish) Place(c *cloud.Cloudlet, vms []*cloud.VM) (*cloud.VM, error) {
	best := vms[0]
	bestETA := math.Inf(1)
	for _, vm := range vms {
		eta := float64(vm.QueuedOrRunning()+1) * vm.EstimateExecTime(c)
		if eta < bestETA {
			best, bestETA = vm, eta
		}
	}
	return best, nil
}

// TwoChoices is the power-of-two-choices balancer (Mitzenmacher): sample d
// VMs uniformly at random and take the least loaded. It is the modern
// descendant of RBS's biased random sampling — d=2 already collapses the
// maximum queue length from Θ(log n/log log n) to Θ(log log n) versus
// purely random placement, with O(d) work per arrival.
type TwoChoices struct {
	D    int // sample size (default 2)
	rand *rand.Rand
}

// NewTwoChoices returns a d=2 sampler over rnd.
func NewTwoChoices(rnd *rand.Rand) *TwoChoices { return &TwoChoices{D: 2, rand: rnd} }

// Name implements Scheduler.
func (*TwoChoices) Name() string { return "online-2choice" }

// Place implements Scheduler.
func (s *TwoChoices) Place(c *cloud.Cloudlet, vms []*cloud.VM) (*cloud.VM, error) {
	if s.rand == nil {
		return nil, fmt.Errorf("online: TwoChoices requires a random source")
	}
	d := s.D
	if d < 1 {
		d = 2
	}
	if d > len(vms) {
		d = len(vms)
	}
	best := vms[s.rand.Intn(len(vms))]
	for k := 1; k < d; k++ {
		cand := vms[s.rand.Intn(len(vms))]
		if cand.QueuedOrRunning() < best.QueuedOrRunning() {
			best = cand
		}
	}
	return best, nil
}

// ---------------------------------------------------------------------------

// ACO is the per-arrival ant: each arriving cloudlet is an ant choosing a
// VM by Eq. 5's rule over a per-VM pheromone trail. Completions deposit
// pheromone inversely proportional to observed execution time (fast
// completions strengthen their VM's trail), after evaporating every trail
// by ρ — so the trail tracks the fleet's current speed and congestion
// rather than a precomputed estimate. Both powers of a weight
// go through objective.Pow, math.Pow bit for bit at about half the cost.
type ACO struct {
	Alpha float64 // pheromone weight (paper Table II: 0.01)
	Beta  float64 // heuristic weight (paper Table II: 0.99)
	Rho   float64 // evaporation per completion (paper Table II: 0.4)
	Q     float64 // deposit constant (paper Table II: 100)
	rand  *rand.Rand

	tau     map[*cloud.VM]float64
	weights []float64 // Place's roulette row, reused across arrivals
}

// NewACO returns an online ACO placer with Table II parameters; rnd must be
// the run's seeded source.
func NewACO(rnd *rand.Rand) *ACO {
	return &ACO{Alpha: 0.01, Beta: 0.99, Rho: 0.4, Q: 100, rand: rnd, tau: map[*cloud.VM]float64{}}
}

// Name implements Scheduler.
func (*ACO) Name() string { return "online-aco" }

// Place implements Scheduler.
func (s *ACO) Place(c *cloud.Cloudlet, vms []*cloud.VM) (*cloud.VM, error) {
	if s.rand == nil {
		return nil, fmt.Errorf("online: ACO requires a random source")
	}
	s.weights = slices.Grow(s.weights[:0], len(vms))[:len(vms)]
	total := 0.0
	for i, vm := range vms {
		tau := s.tau[vm]
		if tau <= 0 {
			tau = 1
		}
		// Congestion-aware heuristic: idealized time inflated by residency.
		d := float64(vm.QueuedOrRunning()+1) * vm.EstimateExecTime(c)
		w := objective.Pow(tau, s.Alpha) * objective.Pow(1/d, s.Beta)
		s.weights[i] = w
		total += w
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return vms[0], nil
	}
	x := s.rand.Float64() * total
	for i, w := range s.weights {
		x -= w
		if x < 0 && w > 0 {
			return vms[i], nil
		}
	}
	return vms[len(vms)-1], nil
}

// Completed implements Feedback: evaporate, then deposit Q/exec on the
// completing VM's trail.
func (s *ACO) Completed(c *cloud.Cloudlet, execSeconds float64) {
	if c.VM == nil || execSeconds <= 0 {
		return
	}
	for vm, tau := range s.tau {
		s.tau[vm] = tau * (1 - s.Rho)
	}
	cur := s.tau[c.VM]
	if cur <= 0 {
		cur = 1
	}
	s.tau[c.VM] = cur + s.Q/execSeconds
}

// ---------------------------------------------------------------------------

// HBO is Nakrani & Tovey's honey-bee server allocation (the paper's [16]):
// each VM is a flower patch whose profitability is the work it retired per
// unit busy time; a fraction of arrivals are scout bees that sample
// uniformly at random, the rest are foragers following the dance floor
// (profitability-weighted roulette, discounted by current congestion).
type HBO struct {
	ScoutFraction float64 // fraction of arrivals exploring randomly
	rand          *rand.Rand

	profit  map[*cloud.VM]float64 // exponentially-averaged MI per second
	weights []float64             // Place's roulette row, reused across arrivals
}

// NewHBO returns an online honey-bee placer with a 10% scout rate.
func NewHBO(rnd *rand.Rand) *HBO {
	return &HBO{ScoutFraction: 0.1, rand: rnd, profit: map[*cloud.VM]float64{}}
}

// Name implements Scheduler.
func (*HBO) Name() string { return "online-hbo" }

// Place implements Scheduler.
func (s *HBO) Place(c *cloud.Cloudlet, vms []*cloud.VM) (*cloud.VM, error) {
	if s.rand == nil {
		return nil, fmt.Errorf("online: HBO requires a random source")
	}
	if s.rand.Float64() < s.ScoutFraction {
		return vms[s.rand.Intn(len(vms))], nil // scout
	}
	s.weights = slices.Grow(s.weights[:0], len(vms))[:len(vms)]
	total := 0.0
	for i, vm := range vms {
		p := s.profit[vm]
		if p <= 0 {
			p = vm.Capacity() // optimistic prior: advertised speed
		}
		w := p / float64(vm.QueuedOrRunning()+1)
		s.weights[i] = w
		total += w
	}
	if total <= 0 {
		return vms[s.rand.Intn(len(vms))], nil
	}
	x := s.rand.Float64() * total
	for i, w := range s.weights {
		x -= w
		if x < 0 && w > 0 {
			return vms[i], nil
		}
	}
	return vms[len(vms)-1], nil
}

// Completed implements Feedback: fold the observed MI/s into the patch's
// exponentially-averaged profitability.
func (s *HBO) Completed(c *cloud.Cloudlet, execSeconds float64) {
	if c.VM == nil || execSeconds <= 0 {
		return
	}
	observed := c.Length / execSeconds
	const alpha = 0.3
	prev := s.profit[c.VM]
	if prev <= 0 {
		prev = observed
	}
	s.profit[c.VM] = (1-alpha)*prev + alpha*observed
}

// ---------------------------------------------------------------------------

// RBS is Algorithm 3 run per arrival: the fleet is split into groups with
// walk-length thresholds and NIDs; each arriving cloudlet draws ω and walks
// from a random entry group until the execution test passes. NIDs reset
// when the whole plant is exhausted, exactly as in the batch form.
type RBS struct {
	Groups int
	rand   *rand.Rand

	groups []rbsGroup
	fleet  []*cloud.VM // fleet the groups were built for
}

type rbsGroup struct {
	vms       []*cloud.VM
	threshold int
	nid       int
	cursor    int
}

// NewRBS returns an online RBS placer with the paper's two groups.
func NewRBS(rnd *rand.Rand) *RBS { return &RBS{Groups: 2, rand: rnd} }

// Name implements Scheduler.
func (*RBS) Name() string { return "online-rbs" }

// Place implements Scheduler.
func (s *RBS) Place(c *cloud.Cloudlet, vms []*cloud.VM) (*cloud.VM, error) {
	if s.rand == nil {
		return nil, fmt.Errorf("online: RBS requires a random source")
	}
	s.ensureGroups(vms)
	q := len(s.groups)
	omega := 1 + s.rand.Intn(q)
	start := s.rand.Intn(q)
	for hops := 0; hops <= 2*q; hops++ {
		g := &s.groups[(start+hops)%q]
		if g.nid > 0 && omega >= g.threshold {
			return s.take(g), nil
		}
		omega++
	}
	// All thresholds passed: only exhaustion blocks — reset NIDs (new round).
	for i := range s.groups {
		s.groups[i].nid = len(s.groups[i].vms)
	}
	return s.take(&s.groups[start]), nil
}

func (s *RBS) take(g *rbsGroup) *cloud.VM {
	vm := g.vms[g.cursor%len(g.vms)]
	g.cursor++
	g.nid--
	exhausted := true
	for i := range s.groups {
		if s.groups[i].nid > 0 {
			exhausted = false
			break
		}
	}
	if exhausted {
		for i := range s.groups {
			s.groups[i].nid = len(s.groups[i].vms)
		}
	}
	return vm
}

// ensureGroups (re)builds group state when the fleet changes.
func (s *RBS) ensureGroups(vms []*cloud.VM) {
	if len(s.fleet) == len(vms) {
		same := true
		for i := range vms {
			if s.fleet[i] != vms[i] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	q := s.Groups
	if q <= 0 {
		q = 2
	}
	if q > len(vms) {
		q = len(vms)
	}
	s.groups = make([]rbsGroup, q)
	for g := range s.groups {
		s.groups[g].threshold = g + 1
	}
	for i, vm := range vms {
		s.groups[i%q].vms = append(s.groups[i%q].vms, vm)
	}
	for g := range s.groups {
		s.groups[g].nid = len(s.groups[g].vms)
	}
	s.fleet = append(s.fleet[:0], vms...)
}
