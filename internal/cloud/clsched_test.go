package cloud

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bioschedsim/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTimeSharedSingleCloudlet(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 1000, 1, 512, 500, 5000)
	var finished []*Cloudlet
	vm.bind(TimeSharedFactory(eng, vm, func(c *Cloudlet) { finished = append(finished, c) }))
	c := NewCloudlet(0, 250, 1, 300, 300)
	vm.Scheduler().Submit(c)
	eng.Run()
	if len(finished) != 1 {
		t.Fatalf("finished: %d", len(finished))
	}
	// 250 MI at 1000 MIPS → 0.25 s.
	if !almost(c.FinishTime, 0.25, 1e-9) {
		t.Fatalf("finish time: %v", c.FinishTime)
	}
	if c.Status != CloudletFinished {
		t.Fatalf("status: %v", c.Status)
	}
}

func TestTimeSharedEqualShare(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 1000, 1, 512, 500, 5000)
	vm.bind(TimeSharedFactory(eng, vm, nil))
	// Two identical cloudlets share 1000 MIPS → each runs at 500 MIPS.
	a := NewCloudlet(0, 500, 1, 0, 0)
	b := NewCloudlet(1, 500, 1, 0, 0)
	vm.Scheduler().Submit(a)
	vm.Scheduler().Submit(b)
	eng.Run()
	if !almost(a.FinishTime, 1.0, 1e-9) || !almost(b.FinishTime, 1.0, 1e-9) {
		t.Fatalf("finish times: %v %v", a.FinishTime, b.FinishTime)
	}
}

func TestTimeSharedUnequalLengths(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 1, 512, 500, 5000)
	vm.bind(TimeSharedFactory(eng, vm, nil))
	short := NewCloudlet(0, 100, 1, 0, 0)
	long := NewCloudlet(1, 300, 1, 0, 0)
	vm.Scheduler().Submit(short)
	vm.Scheduler().Submit(long)
	eng.Run()
	// Processor sharing: both at 50 MIPS until short finishes at t=2
	// (100 MI/50). Long then has 200 MI left at 100 MIPS → finishes at t=4.
	if !almost(short.FinishTime, 2.0, 1e-9) {
		t.Fatalf("short finish: %v", short.FinishTime)
	}
	if !almost(long.FinishTime, 4.0, 1e-9) {
		t.Fatalf("long finish: %v", long.FinishTime)
	}
}

func TestTimeSharedStaggeredArrival(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 1, 512, 500, 5000)
	vm.bind(TimeSharedFactory(eng, vm, nil))
	a := NewCloudlet(0, 200, 1, 0, 0)
	b := NewCloudlet(1, 100, 1, 0, 0)
	vm.Scheduler().Submit(a) // t=0: a alone at 100 MIPS
	eng.Schedule(1, sim.PriorityAcquire, func() { vm.Scheduler().Submit(b) })
	eng.Run()
	// t=1: a has 100 MI left; both now at 50 MIPS. Both finish together at t=3.
	if !almost(a.FinishTime, 3.0, 1e-9) {
		t.Fatalf("a finish: %v", a.FinishTime)
	}
	if !almost(b.FinishTime, 3.0, 1e-9) {
		t.Fatalf("b finish: %v", b.FinishTime)
	}
	if b.StartTime != 1.0 {
		t.Fatalf("b start: %v", b.StartTime)
	}
}

func TestTimeSharedMultiPEVM(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 4, 512, 500, 5000) // 400 MIPS aggregate
	vm.bind(TimeSharedFactory(eng, vm, nil))
	c := NewCloudlet(0, 400, 1, 0, 0)
	vm.Scheduler().Submit(c)
	eng.Run()
	if !almost(c.FinishTime, 1.0, 1e-9) {
		t.Fatalf("finish: %v", c.FinishTime)
	}
}

func TestTimeSharedResident(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 1, 512, 500, 5000)
	vm.bind(TimeSharedFactory(eng, vm, nil))
	for i := 0; i < 5; i++ {
		vm.Scheduler().Submit(NewCloudlet(i, 100, 1, 0, 0))
	}
	if vm.QueuedOrRunning() != 5 {
		t.Fatalf("resident: %d", vm.QueuedOrRunning())
	}
	eng.Run()
	if vm.QueuedOrRunning() != 0 {
		t.Fatalf("resident after run: %d", vm.QueuedOrRunning())
	}
}

func TestTimeSharedDoubleSubmitPanics(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 1, 512, 500, 5000)
	vm.bind(TimeSharedFactory(eng, vm, nil))
	c := NewCloudlet(0, 100, 1, 0, 0)
	vm.Scheduler().Submit(c)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double submit")
		}
	}()
	vm.Scheduler().Submit(c)
}

func TestSpaceSharedSerialExecution(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 1, 512, 500, 5000)
	vm.bind(SpaceSharedFactory(eng, vm, nil))
	a := NewCloudlet(0, 100, 1, 0, 0)
	b := NewCloudlet(1, 100, 1, 0, 0)
	vm.Scheduler().Submit(a)
	vm.Scheduler().Submit(b)
	eng.Run()
	// FIFO on one PE: a [0,1], b [1,2].
	if !almost(a.FinishTime, 1.0, 1e-9) || !almost(b.FinishTime, 2.0, 1e-9) {
		t.Fatalf("finish times: %v %v", a.FinishTime, b.FinishTime)
	}
	if b.StartTime != 1.0 {
		t.Fatalf("b start: %v (want 1.0, queued)", b.StartTime)
	}
	if b.WaitTime() != 1.0 {
		t.Fatalf("b wait: %v", b.WaitTime())
	}
}

func TestSpaceSharedParallelPEs(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 2, 512, 500, 5000)
	vm.bind(SpaceSharedFactory(eng, vm, nil))
	a := NewCloudlet(0, 100, 1, 0, 0)
	b := NewCloudlet(1, 100, 1, 0, 0)
	c := NewCloudlet(2, 100, 1, 0, 0)
	vm.Scheduler().Submit(a)
	vm.Scheduler().Submit(b)
	vm.Scheduler().Submit(c)
	eng.Run()
	// a,b run in parallel [0,1]; c runs [1,2].
	if !almost(a.FinishTime, 1.0, 1e-9) || !almost(b.FinishTime, 1.0, 1e-9) {
		t.Fatalf("parallel finish: %v %v", a.FinishTime, b.FinishTime)
	}
	if !almost(c.FinishTime, 2.0, 1e-9) {
		t.Fatalf("queued finish: %v", c.FinishTime)
	}
}

func TestSpaceSharedMultiPECloudlet(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 2, 512, 500, 5000)
	vm.bind(SpaceSharedFactory(eng, vm, nil))
	wide := NewCloudlet(0, 400, 2, 0, 0) // needs both PEs → 200 MIPS
	vm.Scheduler().Submit(wide)
	eng.Run()
	if !almost(wide.FinishTime, 2.0, 1e-9) {
		t.Fatalf("wide finish: %v", wide.FinishTime)
	}
}

func TestSpaceSharedOversizedCloudletClamped(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 1, 512, 500, 5000)
	vm.bind(SpaceSharedFactory(eng, vm, nil))
	wide := NewCloudlet(0, 100, 4, 0, 0) // wants 4 PEs, VM has 1
	vm.Scheduler().Submit(wide)
	eng.Run()
	if wide.Status != CloudletFinished {
		t.Fatal("oversized cloudlet deadlocked")
	}
	if !almost(wide.FinishTime, 1.0, 1e-9) {
		t.Fatalf("clamped finish: %v", wide.FinishTime)
	}
}

// TestSchedulersWorkConservation: total executed MI equals total submitted
// MI and every cloudlet finishes, for random batches on both disciplines.
func TestSchedulersWorkConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, factory := range []SchedulerFactory{TimeSharedFactory, SpaceSharedFactory} {
			eng := sim.NewEngine()
			vm := NewVM(0, 100+r.Float64()*900, 1+r.Intn(4), 512, 500, 5000)
			var finished []*Cloudlet
			vm.bind(factory(eng, vm, func(c *Cloudlet) { finished = append(finished, c) }))
			n := 1 + r.Intn(30)
			var total float64
			for i := 0; i < n; i++ {
				length := 1 + r.Float64()*5000
				total += length
				vm.Scheduler().Submit(NewCloudlet(i, length, 1+r.Intn(2), 0, 0))
			}
			eng.Run()
			if len(finished) != n {
				return false
			}
			var span sim.Time
			for _, c := range finished {
				if c.FinishTime > span {
					span = c.FinishTime
				}
				if c.Remaining() != 0 {
					return false
				}
			}
			// Makespan cannot beat the aggregate-capacity lower bound.
			if span < total/vm.Capacity()-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTimeSharedFinishOrderMatchesLengths: shorter cloudlets never finish
// after longer ones when all arrive together.
func TestTimeSharedFinishOrderMatchesLengths(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 1000, 1, 512, 500, 5000)
	var order []int
	vm.bind(TimeSharedFactory(eng, vm, func(c *Cloudlet) { order = append(order, c.ID) }))
	lengths := []float64{500, 100, 300, 200, 400}
	for i, l := range lengths {
		vm.Scheduler().Submit(NewCloudlet(i, l, 1, 0, 0))
	}
	eng.Run()
	want := []int{1, 3, 2, 4, 0} // ascending by length
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("finish order: %v want %v", order, want)
		}
	}
}

// TestTimeSharedSubUlpFinishDoesNotLivelock: at t = 2^18 a 1.1e-7 MI
// cloudlet on a 4000-MIPS VM needs 2.75e-11 s, below half an ulp of the
// clock, so its completion instant rounds to now. It must be retired at
// once instead of the completion event re-arming at now for ever, and the
// VM must keep running later work.
func TestTimeSharedSubUlpFinishDoesNotLivelock(t *testing.T) {
	const start = 1 << 18
	eng := sim.NewEngine()
	eng.RunUntil(start)
	vm := NewVM(0, 4000, 1, 512, 500, 5000)
	vm.bind(TimeSharedFactory(eng, vm, nil))
	runBounded := func() {
		t.Helper()
		for steps := 0; eng.Step(); steps++ {
			if steps == 100 {
				t.Fatalf("still stepping after %d events at t=%v: completion re-arms at now", steps, eng.Now())
			}
		}
	}
	tiny := NewCloudlet(0, 1.1e-7, 1, 0, 0)
	vm.Scheduler().Submit(tiny)
	runBounded()
	if tiny.Status != CloudletFinished || tiny.FinishTime != start {
		t.Fatalf("tiny cloudlet: status %v, finish %v; want finished at %v", tiny.Status, tiny.FinishTime, start)
	}
	long := NewCloudlet(1, 4000, 1, 0, 0)
	vm.Scheduler().Submit(long)
	runBounded()
	if long.Status != CloudletFinished || long.FinishTime != start+1 {
		t.Fatalf("long cloudlet: status %v, finish %v; want finished at %v", long.Status, long.FinishTime, start+1)
	}
}

// TestTimeSharedFinishHookResubmitsToSameVM: a finish callback that
// submits to the VM it finished on re-arms the VM's one completion event;
// no duplicate completion event is left queued to fire as an extra tick.
func TestTimeSharedFinishHookResubmitsToSameVM(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 1000, 1, 512, 500, 5000)
	var finishes []sim.Time
	vm.bind(TimeSharedFactory(eng, vm, func(c *Cloudlet) {
		finishes = append(finishes, c.FinishTime)
		if len(finishes) < 5 {
			vm.Scheduler().Submit(NewCloudlet(100+len(finishes), 300, 1, 0, 0))
		}
	}))
	vm.Scheduler().Submit(NewCloudlet(0, 100, 1, 0, 0))
	vm.Scheduler().Submit(NewCloudlet(1, 700, 1, 0, 0))
	eng.Run()
	// Processor sharing at 1000 MIPS: 100 MI of two ends at 0.2; each
	// resubmitted 300 MI cloudlet then shares with what is left.
	want := []sim.Time{0.2, 0.8, 1.4, 1.4, 2, 2}
	if len(finishes) != len(want) {
		t.Fatalf("finish times %v, want %v", finishes, want)
	}
	for i := range want {
		if !almost(finishes[i], want[i], 1e-9) {
			t.Fatalf("finish times %v, want %v", finishes, want)
		}
	}
	if eng.Fired() != 4 {
		t.Fatalf("fired %d events, want one per completion instant (4)", eng.Fired())
	}
}

// rearm returns a finished cloudlet to its pre-submission state so one
// batch can be replayed through a scheduler.
func rearm(c *Cloudlet) {
	c.interrupt()
	c.remaining = c.Length
}

// TestTimeSharedSubmitFinishAllocatesNothing: once warmed, submitting
// cloudlets to one VM and running them to completion allocates nothing.
// The completion event is re-armed in place, both while queued (a new
// arrival) and after it fired, and collect reuses its scratch slice.
func TestTimeSharedSubmitFinishAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 1000, 2, 512, 500, 5000)
	finished := 0
	vm.bind(TimeSharedFactory(eng, vm, func(*Cloudlet) { finished++ }))
	batch := make([]*Cloudlet, 8)
	for i := range batch {
		batch[i] = NewCloudlet(i, float64(100*(i+1)), 1, 0, 0)
	}
	cycle := func() {
		for _, c := range batch {
			rearm(c)
			vm.Scheduler().Submit(c)
			eng.RunUntil(eng.Now() + 0.1)
		}
		eng.Run()
	}
	const runs = 20
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Fatalf("%v allocations per cycle of %d cloudlets, want 0", allocs, len(batch))
	}
	if want := (runs + 1) * len(batch); finished != want {
		t.Fatalf("finished %d cloudlets, want %d", finished, want)
	}
}

// TestSpaceSharedSubmitFinishAllocatesNothing: once warmed, submitting
// cloudlets to one space-shared VM and running them to completion
// allocates nothing. Run records and their completion events come from the
// scheduler's free list, and the wait queue shifts in place.
func TestSpaceSharedSubmitFinishAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 1000, 2, 512, 500, 5000)
	finished := 0
	vm.bind(SpaceSharedFactory(eng, vm, func(*Cloudlet) { finished++ }))
	batch := make([]*Cloudlet, 8)
	for i := range batch {
		batch[i] = NewCloudlet(i, float64(100*(i+1)), 1+i%3, 0, 0)
	}
	cycle := func() {
		for _, c := range batch {
			rearm(c)
			vm.Scheduler().Submit(c)
			eng.RunUntil(eng.Now() + 0.1)
		}
		eng.Run()
	}
	const runs = 20
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Fatalf("%v allocations per cycle of %d cloudlets, want 0", allocs, len(batch))
	}
	if want := (runs + 1) * len(batch); finished != want {
		t.Fatalf("finished %d cloudlets, want %d", finished, want)
	}
}

func BenchmarkTimeSharedThousandCloudlets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		vm := NewVM(0, 1000, 1, 512, 500, 5000)
		vm.bind(TimeSharedFactory(eng, vm, nil))
		for j := 0; j < 1000; j++ {
			vm.Scheduler().Submit(NewCloudlet(j, 100+float64(j%7)*50, 1, 0, 0))
		}
		eng.Run()
	}
}

func BenchmarkSpaceSharedThousandCloudlets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		vm := NewVM(0, 1000, 2, 512, 500, 5000)
		vm.bind(SpaceSharedFactory(eng, vm, nil))
		for j := 0; j < 1000; j++ {
			vm.Scheduler().Submit(NewCloudlet(j, 100+float64(j%7)*50, 1, 0, 0))
		}
		eng.Run()
	}
}
