package main

import (
	"fmt"
	"math/rand"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/qmodel"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/sim"
)

// cmdValidate runs the simulator's self-checks: queueing-theory agreement,
// homogeneous optimality, determinism, and the paper's headline orderings.
// These overlap with the test suite on purpose — they let a user verify an
// installed binary without the source tree.
func cmdValidate() error {
	checks := []struct {
		name string
		run  func() error
	}{
		{"M/M/1 mean wait matches theory (ρ=0.7)", checkMM1},
		{"base test is optimal on a homogeneous plant", checkHomogeneousOptimal},
		{"runs are deterministic in the seed", checkDeterminism},
		{"heterogeneous headline orderings (Fig. 6)", checkHeadlines},
	}
	failures := 0
	for _, c := range checks {
		if err := c.run(); err != nil {
			failures++
			fmt.Printf("  [FAIL] %s: %v\n", c.name, err)
		} else {
			fmt.Printf("  [ OK ] %s\n", c.name)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d self-checks failed", failures, len(checks))
	}
	fmt.Println("all self-checks passed")
	return nil
}

// checkMM1 validates the DES against the M/M/1 queue.
func checkMM1() error {
	const (
		lambda = 0.7
		mu     = 1.0
		n      = 30000
	)
	r := rand.New(rand.NewSource(11))
	eng := sim.NewEngine()
	env := &cloud.Environment{}
	host := cloud.NewHost(0, cloud.NewPEs(1, 1000), 1<<16, 1<<20, 1<<30)
	cloud.NewDatacenter(0, "dc", cloud.Characteristics{}, []*cloud.Host{host})
	vm := cloud.NewVM(0, 1000, 1, 512, 500, 5000)
	if err := host.Place(vm); err != nil {
		return err
	}
	env.Datacenters = []*cloud.Datacenter{host.Datacenter}
	env.VMs = []*cloud.VM{vm}
	broker := cloud.NewBroker(eng, env, cloud.SpaceSharedFactory)

	at := sim.Time(0)
	arrivals := make([]sim.Time, n)
	cloudlets := make([]*cloud.Cloudlet, n)
	for i := range cloudlets {
		at += sim.Time(r.ExpFloat64() / lambda)
		length := r.ExpFloat64() / mu * 1000
		if length < 1e-6 {
			length = 1e-6
		}
		arrivals[i] = at
		cloudlets[i] = cloud.NewCloudlet(i, length, 1, 0, 0)
	}
	var c *cloud.Cloudlet
	submit := func() { broker.Submit(c, vm) }
	order := sim.OrderArrivals(arrivals)
	for p := range arrivals {
		i := order.Index(p)
		c = cloudlets[i]
		eng.FireAt(arrivals[i], sim.PriorityAcquire, submit)
	}
	eng.Run()
	var wait float64
	for _, c := range broker.Finished() {
		wait += c.WaitTime()
	}
	meanWait := wait / float64(n)
	theory, err := qmodel.MM1WaitQueue(lambda, mu)
	if err != nil {
		return err
	}
	if rel := qmodel.RelativeError(meanWait, theory); rel > 0.15 {
		return fmt.Errorf("simulated %.3f vs theory %.3f (%.0f%% off)", meanWait, theory, rel*100)
	}
	return nil
}

// checkHomogeneousOptimal verifies no algorithm beats cyclic assignment on
// identical VMs and cloudlets.
func checkHomogeneousOptimal() error {
	base, err := runScenario(sched.NewRoundRobin(), "homogeneous", 8, 400, 1, 5)
	if err != nil {
		return err
	}
	for _, name := range []string{"aco", "hbo", "rbs"} {
		s, err := sched.New(name)
		if err != nil {
			return err
		}
		rep, err := runScenario(s, "homogeneous", 8, 400, 1, 5)
		if err != nil {
			return err
		}
		if rep.SimTime < base.SimTime*0.999 {
			return fmt.Errorf("%s beat the optimum (%.4f < %.4f)", name, rep.SimTime, base.SimTime)
		}
	}
	return nil
}

// checkDeterminism verifies a stochastic scheduler reproduces exactly.
func checkDeterminism() error {
	s, err := sched.New("aco")
	if err != nil {
		return err
	}
	a, err := runScenario(s, "heterogeneous", 10, 100, 2, 77)
	if err != nil {
		return err
	}
	b, err := runScenario(s, "heterogeneous", 10, 100, 2, 77)
	if err != nil {
		return err
	}
	if a.SimTime != b.SimTime || a.Cost != b.Cost {
		return fmt.Errorf("two identical runs diverged: %v/%v vs %v/%v", a.SimTime, a.Cost, b.SimTime, b.Cost)
	}
	return nil
}

// checkHeadlines verifies the Figure-6 orderings on one mid-size run.
func checkHeadlines() error {
	reps := map[string]struct {
		sim  float64
		cost float64
	}{}
	for _, name := range []string{"aco", "base", "hbo", "rbs"} {
		s, err := sched.New(name)
		if err != nil {
			return err
		}
		rep, err := runScenario(s, "heterogeneous", 50, 1000, 4, 2016)
		if err != nil {
			return err
		}
		reps[name] = struct {
			sim  float64
			cost float64
		}{rep.SimTime, rep.Cost}
	}
	if !(reps["aco"].sim < reps["base"].sim) {
		return fmt.Errorf("ACO (%.1f) not faster than base (%.1f)", reps["aco"].sim, reps["base"].sim)
	}
	if !(reps["hbo"].cost < reps["base"].cost && reps["hbo"].cost < reps["aco"].cost && reps["hbo"].cost < reps["rbs"].cost) {
		return fmt.Errorf("HBO not cheapest: %v", reps)
	}
	return nil
}
