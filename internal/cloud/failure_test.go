package cloud

import (
	"math"
	"testing"
	"testing/quick"

	"bioschedsim/internal/sim"
)

func TestTimeSharedDrainRetainsProgress(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 1, 512, 500, 5000)
	vm.bind(TimeSharedFactory(eng, vm, nil))
	c := NewCloudlet(0, 1000, 1, 0, 0) // 10 s alone
	vm.Scheduler().Submit(c)
	eng.RunUntil(4) // 400 MI done
	drained := vm.Scheduler().Drain()
	if len(drained) != 1 || drained[0] != c {
		t.Fatalf("drained: %v", drained)
	}
	if math.Abs(c.Remaining()-600) > 1e-9 {
		t.Fatalf("remaining after drain: %v", c.Remaining())
	}
	if c.Status != CloudletCreated || c.VM != nil {
		t.Fatalf("drained cloudlet not interrupted: %v %v", c.Status, c.VM)
	}
	if vm.QueuedOrRunning() != 0 {
		t.Fatal("scheduler not empty after drain")
	}
	// The old completion event must not fire.
	eng.Run()
	if c.Status == CloudletFinished {
		t.Fatal("stale completion event fired after drain")
	}
}

func TestSpaceSharedDrainRunningAndQueued(t *testing.T) {
	eng := sim.NewEngine()
	vm := NewVM(0, 100, 1, 512, 500, 5000)
	vm.bind(SpaceSharedFactory(eng, vm, nil))
	running := NewCloudlet(0, 1000, 1, 0, 0)
	queued := NewCloudlet(1, 500, 1, 0, 0)
	vm.Scheduler().Submit(running)
	vm.Scheduler().Submit(queued)
	eng.RunUntil(3) // running has 700 MI left; queued untouched
	drained := vm.Scheduler().Drain()
	if len(drained) != 2 {
		t.Fatalf("drained %d cloudlets", len(drained))
	}
	if drained[0].ID != 0 || drained[1].ID != 1 {
		t.Fatalf("drain order: %v %v", drained[0].ID, drained[1].ID)
	}
	if math.Abs(running.Remaining()-700) > 1e-9 {
		t.Fatalf("running remaining: %v", running.Remaining())
	}
	if queued.Remaining() != 500 {
		t.Fatalf("queued remaining: %v", queued.Remaining())
	}
	eng.Run()
	if running.Status == CloudletFinished {
		t.Fatal("stale space-shared completion fired after drain")
	}
}

func TestDrainedCloudletResumesElsewhere(t *testing.T) {
	eng := sim.NewEngine()
	a := NewVM(0, 100, 1, 512, 500, 5000)
	b := NewVM(1, 200, 1, 512, 500, 5000)
	var finished []*Cloudlet
	record := func(c *Cloudlet) { finished = append(finished, c) }
	a.bind(TimeSharedFactory(eng, a, record))
	b.bind(TimeSharedFactory(eng, b, record))
	c := NewCloudlet(0, 1000, 1, 0, 0)
	a.Scheduler().Submit(c)
	eng.RunUntil(4) // 400 MI done on a
	a.Scheduler().Drain()
	b.Scheduler().Submit(c) // resume on b at t=4; 600 MI at 200 MIPS = 3 s
	eng.Run()
	if len(finished) != 1 {
		t.Fatalf("finished: %d", len(finished))
	}
	if !almost(c.FinishTime, 7.0, 1e-9) {
		t.Fatalf("resumed finish: %v (want 7)", c.FinishTime)
	}
	if c.VM != b {
		t.Fatal("cloudlet not recorded on the new VM")
	}
}

func TestBrokerFailVMMigratesWork(t *testing.T) {
	env := testEnv(t, 4, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	cls := make([]*Cloudlet, 12)
	vms := make([]*VM, 12)
	for i := range cls {
		cls[i] = NewCloudlet(i, 2000, 1, 0, 0)
		vms[i] = env.VMs[i%4]
	}
	if err := b.SubmitAll(cls, vms); err != nil {
		t.Fatal(err)
	}
	victim := env.VMs[0]
	if err := b.FailVM(victim, 1.0, LeastLoadedFailover); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(b.Finished()) != 12 {
		t.Fatalf("finished %d of 12 (lost %d)", len(b.Finished()), len(b.Lost()))
	}
	if b.Migrations() != 3 {
		t.Fatalf("migrations: %d want 3", b.Migrations())
	}
	if !b.failed[victim] {
		t.Fatal("victim not marked failed")
	}
	for _, c := range b.Finished() {
		if c.Remaining() != 0 {
			t.Fatalf("cloudlet %d finished with remaining %v", c.ID, c.Remaining())
		}
		if c.VM == victim && c.FinishTime > 1.0 {
			t.Fatalf("cloudlet %d finished on failed VM after the failure", c.ID)
		}
	}
}

func TestBrokerFailVMIdempotent(t *testing.T) {
	env := testEnv(t, 2, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	c := NewCloudlet(0, 5000, 1, 0, 0)
	b.Submit(c, env.VMs[0])
	if err := b.FailVM(env.VMs[0], 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.FailVM(env.VMs[0], 2, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if b.Migrations() != 1 {
		t.Fatalf("double failure migrated twice: %d", b.Migrations())
	}
	if len(b.Finished()) != 1 {
		t.Fatalf("finished: %d", len(b.Finished()))
	}
}

func TestBrokerFailVMAllFailedLosesWork(t *testing.T) {
	env := testEnv(t, 2, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	c0 := NewCloudlet(0, 10000, 1, 0, 0)
	c1 := NewCloudlet(1, 10000, 1, 0, 0)
	b.Submit(c0, env.VMs[0])
	b.Submit(c1, env.VMs[1])
	if err := b.FailVM(env.VMs[0], 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.FailVM(env.VMs[1], 2, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// VM0's work migrates to VM1 at t=1; at t=2 VM1 fails with no healthy
	// target left: both cloudlets are lost.
	if len(b.Lost()) != 2 {
		t.Fatalf("lost: %d want 2", len(b.Lost()))
	}
	if len(b.Finished()) != 0 {
		t.Fatalf("finished: %d want 0", len(b.Finished()))
	}
}

func TestBrokerFailVMForeignVM(t *testing.T) {
	env := testEnv(t, 1, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	foreign := NewVM(99, 1000, 1, 512, 500, 5000)
	if err := b.FailVM(foreign, 1, nil); err == nil {
		t.Fatal("foreign VM accepted")
	}
}

func TestFailoverPolicies(t *testing.T) {
	eng := sim.NewEngine()
	slow := NewVM(0, 500, 1, 512, 500, 5000)
	fast := NewVM(1, 4000, 1, 512, 500, 5000)
	slow.bind(TimeSharedFactory(eng, slow, nil))
	fast.bind(TimeSharedFactory(eng, fast, nil))
	fast.Scheduler().Submit(NewCloudlet(5, 100, 1, 0, 0)) // load the fast VM
	healthy := []*VM{slow, fast}
	c := NewCloudlet(0, 100, 1, 0, 0)
	if got := LeastLoadedFailover(c, healthy); got != slow {
		t.Fatalf("least-loaded picked VM %d", got.ID)
	}
	if got := FastestFailover(c, healthy); got != fast {
		t.Fatalf("fastest picked VM %d", got.ID)
	}
	if LeastLoadedFailover(c, nil) != nil || FastestFailover(c, nil) != nil {
		t.Fatal("empty healthy list should return nil")
	}
}

// TestFailureWorkConservationProperty: with one random mid-run failure and
// least-loaded failover, every cloudlet still completes all its work.
func TestFailureWorkConservationProperty(t *testing.T) {
	f := func(seed int64, victimIdx, failAtRaw uint8) bool {
		env := testEnv(t, 4, 1000)
		eng := sim.NewEngine()
		b := NewBroker(eng, env, TimeSharedFactory)
		const n = 16
		var total float64
		for i := 0; i < n; i++ {
			raw := (seed + int64(i)*97) % 4096
			if raw < 0 {
				raw += 4096
			}
			length := 500 + float64(raw)
			total += length
			b.Submit(NewCloudlet(i, length, 1, 0, 0), env.VMs[i%4])
		}
		victim := env.VMs[int(victimIdx)%4]
		failAt := 0.1 + float64(failAtRaw)/64
		if err := b.FailVM(victim, failAt, LeastLoadedFailover); err != nil {
			return false
		}
		eng.Run()
		if len(b.Finished()) != n || len(b.Lost()) != 0 {
			return false
		}
		for _, c := range b.Finished() {
			if c.Remaining() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
