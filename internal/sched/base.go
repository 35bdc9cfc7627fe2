package sched

import "fmt"

// RoundRobin is the paper's "Base Test": CloudSim's default mapper, which
// assigns cloudlets to VMs cyclically with no inspection of either side. In
// a homogeneous plant it is the optimal schedule; its scheduling time is
// effectively zero, which is the yardstick of Figs. 5 and 6b.
type RoundRobin struct{}

// NewRoundRobin returns the base-test scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (*RoundRobin) Name() string { return "base" }

// Schedule implements Scheduler.
func (*RoundRobin) Schedule(ctx *Context) ([]Assignment, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	out := make([]Assignment, len(ctx.Cloudlets))
	for i, c := range ctx.Cloudlets {
		out[i] = Assignment{Cloudlet: c, VM: ctx.VMs[i%len(ctx.VMs)]}
	}
	return out, nil
}

// Random assigns every cloudlet to a uniformly random VM. It is the
// zero-intelligence control: any scheduler worth running must beat it on
// heterogeneous plants.
type Random struct{}

// NewRandom returns the random scheduler.
func NewRandom() *Random { return &Random{} }

// Name implements Scheduler.
func (*Random) Name() string { return "random" }

// Schedule implements Scheduler.
func (*Random) Schedule(ctx *Context) ([]Assignment, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if ctx.Rand == nil {
		return nil, fmt.Errorf("sched: random scheduler requires ctx.Rand")
	}
	out := make([]Assignment, len(ctx.Cloudlets))
	for i, c := range ctx.Cloudlets {
		out[i] = Assignment{Cloudlet: c, VM: ctx.VMs[ctx.Rand.Intn(len(ctx.VMs))]}
	}
	return out, nil
}

func init() {
	Register("base", func() Scheduler { return NewRoundRobin() })
	Register("random", func() Scheduler { return NewRandom() })
	DeclareTraits("base", Traits{PermutationInvariant: true})
}
