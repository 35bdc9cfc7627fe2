package online

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/workload"
)

// hetEnv materializes a small heterogeneous environment + cloudlets.
func hetEnv(t testing.TB, nVMs, nCls int, seed uint64) (*cloud.Environment, []*cloud.Cloudlet) {
	t.Helper()
	s, err := workload.Heterogeneous(nVMs, nCls, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s.Env, s.Cloudlets
}

// uniformArrivals spaces n arrivals dt apart.
func uniformArrivals(n int, dt float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * dt
	}
	return out
}

func allSchedulers(rnd *rand.Rand) []Scheduler {
	return []Scheduler{
		NewRoundRobin(), NewLeastLoaded(), NewEarliestFinish(),
		NewACO(rnd), NewHBO(rnd), NewRBS(rnd), NewTwoChoices(rnd),
	}
}

func TestAllOnlineSchedulersCompleteEverything(t *testing.T) {
	for _, s := range allSchedulers(rand.New(rand.NewSource(1))) {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			env, cls := hetEnv(t, 8, 80, 3)
			res, err := Run(env, s, cls, uniformArrivals(80, 0.1), cloud.TimeSharedFactory)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Finished) != 80 {
				t.Fatalf("finished: %d", len(res.Finished))
			}
			if res.MeanResponse <= 0 || res.SimTime <= 0 {
				t.Fatalf("degenerate result: %+v", res)
			}
			if res.MeanWait < 0 {
				t.Fatalf("negative wait: %v", res.MeanWait)
			}
		})
	}
}

func TestRoundRobinCursorCycles(t *testing.T) {
	env, _ := hetEnv(t, 4, 4, 1)
	s := NewRoundRobin()
	c := cloud.NewCloudlet(0, 100, 1, 0, 0)
	var got []int
	for i := 0; i < 8; i++ {
		vm, err := s.Place(c, env.VMs)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, vm.ID)
	}
	for i := 0; i < 4; i++ {
		if got[i] != got[i+4] {
			t.Fatalf("cursor not cyclic: %v", got)
		}
	}
}

func TestLeastLoadedPicksIdleVM(t *testing.T) {
	env, cls := hetEnv(t, 3, 3, 5)
	// Manually load VM 0 and 1 via a running engine-less check: bind
	// schedulers through a Run with arrivals that pile up.
	s := NewLeastLoaded()
	res, err := Run(env, s, cls, []float64{0, 0, 0}, cloud.TimeSharedFactory)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, c := range res.Finished {
		used[c.VM.ID] = true
	}
	// Three simultaneous arrivals on an idle 3-VM fleet must spread out.
	if len(used) != 3 {
		t.Fatalf("least-loaded piled up: %v", used)
	}
}

func TestEarliestFinishPrefersFastVMWhenIdle(t *testing.T) {
	env, _ := hetEnv(t, 6, 1, 7)
	var fastest *cloud.VM
	for _, vm := range env.VMs {
		if fastest == nil || vm.Capacity() > fastest.Capacity() {
			fastest = vm
		}
	}
	s := NewEarliestFinish()
	c := cloud.NewCloudlet(0, 10000, 1, 300, 300)
	vm, err := s.Place(c, env.VMs)
	if err != nil {
		t.Fatal(err)
	}
	if vm != fastest {
		t.Fatalf("EFT picked VM %d (%.0f MIPS), fastest is %d (%.0f)", vm.ID, vm.Capacity(), fastest.ID, fastest.Capacity())
	}
}

func TestOnlineACOLearnsFromCompletions(t *testing.T) {
	env, cls := hetEnv(t, 6, 300, 11)
	rnd := rand.New(rand.NewSource(2))
	aco := NewACO(rnd)
	res, err := Run(env, aco, cls, uniformArrivals(300, 0.05), cloud.TimeSharedFactory)
	if err != nil {
		t.Fatal(err)
	}
	// After 300 completions the pheromone map must be populated with
	// positive trails (evaporation never drives them negative) and every
	// cloudlet must have completed.
	if len(aco.tau) == 0 {
		t.Fatal("no pheromone accumulated")
	}
	for vm, tau := range aco.tau {
		if tau <= 0 {
			t.Fatalf("non-positive trail on VM %d: %v", vm.ID, tau)
		}
	}
	if len(res.Finished) != 300 {
		t.Fatalf("finished: %d", len(res.Finished))
	}
}

func TestOnlineACOBeatsRoundRobinOnHeterogeneous(t *testing.T) {
	run := func(s Scheduler) float64 {
		env, cls := hetEnv(t, 10, 400, 13)
		res, err := Run(env, s, cls, uniformArrivals(400, 0.02), cloud.TimeSharedFactory)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.MeanResponse)
	}
	acoResp := run(NewACO(rand.New(rand.NewSource(3))))
	rrResp := run(NewRoundRobin())
	if acoResp >= rrResp {
		t.Fatalf("online ACO response %v not below round-robin %v", acoResp, rrResp)
	}
}

func TestOnlineHBOLearnsProfitability(t *testing.T) {
	env, cls := hetEnv(t, 6, 300, 17)
	rnd := rand.New(rand.NewSource(4))
	hbo := NewHBO(rnd)
	if _, err := Run(env, hbo, cls, uniformArrivals(300, 0.05), cloud.TimeSharedFactory); err != nil {
		t.Fatal(err)
	}
	if len(hbo.profit) == 0 {
		t.Fatal("no profitability recorded")
	}
	for vm, p := range hbo.profit {
		if p <= 0 {
			t.Fatalf("non-positive profitability for VM %d: %v", vm.ID, p)
		}
	}
}

func TestOnlineHBOScoutFractionExplores(t *testing.T) {
	env, _ := hetEnv(t, 8, 1, 19)
	rnd := rand.New(rand.NewSource(5))
	hbo := NewHBO(rnd)
	hbo.ScoutFraction = 1.0 // every arrival scouts
	counts := map[int]int{}
	c := cloud.NewCloudlet(0, 100, 1, 0, 0)
	for i := 0; i < 400; i++ {
		vm, err := hbo.Place(c, env.VMs)
		if err != nil {
			t.Fatal(err)
		}
		counts[vm.ID]++
	}
	if len(counts) != 8 {
		t.Fatalf("pure scouting should reach all VMs: %v", counts)
	}
}

func TestOnlineRBSGroupRebuild(t *testing.T) {
	env, _ := hetEnv(t, 6, 1, 23)
	rnd := rand.New(rand.NewSource(6))
	s := NewRBS(rnd)
	c := cloud.NewCloudlet(0, 100, 1, 0, 0)
	if _, err := s.Place(c, env.VMs); err != nil {
		t.Fatal(err)
	}
	if len(s.groups) != 2 {
		t.Fatalf("groups: %d", len(s.groups))
	}
	// Shrink the fleet: groups must rebuild.
	if _, err := s.Place(c, env.VMs[:3]); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range s.groups {
		total += len(g.vms)
	}
	if total != 3 {
		t.Fatalf("groups not rebuilt for new fleet: %d VMs grouped", total)
	}
}

func TestOnlineRBSBalancesCounts(t *testing.T) {
	env, cls := hetEnv(t, 6, 240, 29)
	res, err := Run(env, NewRBS(rand.New(rand.NewSource(7))), cls, uniformArrivals(240, 0.01), cloud.TimeSharedFactory)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, c := range res.Finished {
		counts[c.VM.ID]++
	}
	min, max := 1<<30, 0
	for _, n := range counts {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 2 {
		t.Fatalf("RBS count spread too wide: min %d max %d", min, max)
	}
}

func TestTwoChoicesBeatsRandomSpread(t *testing.T) {
	// Under simultaneous arrivals, d=2 sampling must spread counts far
	// tighter than uniform random placement.
	spread := func(s Scheduler, seed uint64) int {
		env, cls := hetEnv(t, 10, 400, seed)
		res, err := Run(env, s, cls, uniformArrivals(400, 0.001), cloud.TimeSharedFactory)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[int]int{}
		for _, c := range res.Finished {
			counts[c.VM.ID]++
		}
		min, max := 1<<30, 0
		for _, vm := range env.VMs {
			n := counts[vm.ID]
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		return max - min
	}
	two := spread(NewTwoChoices(rand.New(rand.NewSource(1))), 41)
	// A pure d=1 sampler is uniform random placement.
	one := &TwoChoices{D: 1, rand: rand.New(rand.NewSource(1))}
	rnd := spread(one, 41)
	if two >= rnd {
		t.Fatalf("two choices spread %d not below random %d", two, rnd)
	}
}

func TestTwoChoicesClampsD(t *testing.T) {
	env, _ := hetEnv(t, 3, 1, 43)
	s := &TwoChoices{D: 50, rand: rand.New(rand.NewSource(2))}
	c := cloud.NewCloudlet(0, 100, 1, 0, 0)
	if _, err := s.Place(c, env.VMs); err != nil {
		t.Fatal(err)
	}
	s2 := &TwoChoices{D: 0, rand: rand.New(rand.NewSource(2))}
	if _, err := s2.Place(c, env.VMs); err != nil {
		t.Fatal(err)
	}
}

func TestTwoChoicesRequiresRand(t *testing.T) {
	env, _ := hetEnv(t, 3, 1, 47)
	s := &TwoChoices{D: 2}
	if _, err := s.Place(cloud.NewCloudlet(0, 100, 1, 0, 0), env.VMs); err == nil {
		t.Fatal("expected error without rand")
	}
}

func TestRunInputValidation(t *testing.T) {
	env, cls := hetEnv(t, 2, 4, 31)
	if _, err := Run(env, NewRoundRobin(), nil, nil, cloud.TimeSharedFactory); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := Run(env, NewRoundRobin(), cls, uniformArrivals(3, 1), cloud.TimeSharedFactory); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Run(env, NewRoundRobin(), cls, []float64{-1, 0, 1, 2}, cloud.TimeSharedFactory); err == nil {
		t.Fatal("negative arrival accepted")
	}
}

// TestRunRejectsNonFiniteArrivals: arrivals the kernel would panic on
// (NaN) or never reach (+Inf) are an error from Run, not a panic.
func TestRunRejectsNonFiniteArrivals(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		env, cls := hetEnv(t, 2, 4, 31)
		if _, err := Run(env, NewRoundRobin(), cls, []float64{0, bad, 1, 2}, cloud.TimeSharedFactory); err == nil {
			t.Fatalf("arrival %v accepted", bad)
		}
	}
}

func TestRunPlaceErrorPropagates(t *testing.T) {
	env, cls := hetEnv(t, 2, 4, 37)
	// ACO without a random source fails at the first placement.
	if _, err := Run(env, &ACO{Alpha: 1, Beta: 1, Rho: .5, Q: 1}, cls, uniformArrivals(4, 1), cloud.TimeSharedFactory); err == nil {
		t.Fatal("place error swallowed")
	}
}

func TestOnlinePropertyAllComplete(t *testing.T) {
	f := func(seed uint64, schedIdx uint8, nRaw uint8) bool {
		n := 10 + int(nRaw)%60
		env, cls := hetEnv(t, 5, n, seed)
		rnd := rand.New(rand.NewSource(int64(seed)))
		scheds := allSchedulers(rnd)
		s := scheds[int(schedIdx)%len(scheds)]
		res, err := Run(env, s, cls, uniformArrivals(n, 0.05), cloud.TimeSharedFactory)
		if err != nil {
			return false
		}
		return len(res.Finished) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
