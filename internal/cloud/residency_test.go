package cloud

import (
	"fmt"
	"testing"

	"bioschedsim/internal/sim"
)

// residencyCheck asserts that every tracked VM's residency field agrees
// with its bound scheduler's own count. As an engine tracer it runs before
// each fired event, that is after the previous one.
type residencyCheck struct {
	t      *testing.T
	vms    []*VM
	checks int
}

func (r *residencyCheck) track(vms ...*VM) { r.vms = append(r.vms, vms...) }

func (r *residencyCheck) Fire(ev *sim.Event) { r.check(fmt.Sprintf("before event at t=%v", ev.Time())) }

func (r *residencyCheck) check(where string) {
	r.t.Helper()
	r.checks++
	for _, vm := range r.vms {
		want := 0
		if vm.Scheduler() != nil {
			want = vm.Scheduler().Resident()
		}
		if got := vm.QueuedOrRunning(); got != want {
			r.t.Fatalf("%s: VM %d QueuedOrRunning()=%d, scheduler Resident()=%d", where, vm.ID, got, want)
		}
	}
}

// TestResidencyFieldTracksScheduler drives both disciplines through every
// step that changes a VM's resident count (submission, completion,
// explicit drain, failure-injection migration, provisioning and
// decommissioning) and checks the residency field after each of them and
// after every fired event.
func TestResidencyFieldTracksScheduler(t *testing.T) {
	for _, f := range []struct {
		name    string
		factory SchedulerFactory
	}{{"time-shared", TimeSharedFactory}, {"space-shared", SpaceSharedFactory}} {
		t.Run(f.name, func(t *testing.T) {
			chk := &residencyCheck{t: t}
			eng := sim.NewEngine(sim.WithTracer(chk))
			env := testEnv(t, 4, 1000)
			// A 2-PE VM so space-shared runs two at once and queues the rest.
			wide := NewVM(9, 1000, 2, 512, 500, 5000)
			if wide.QueuedOrRunning() != 0 {
				t.Fatalf("unbound VM reports %d resident", wide.QueuedOrRunning())
			}
			if err := Allocate(env.Hosts(), []*VM{wide}); err != nil {
				t.Fatal(err)
			}
			env.VMs = append(env.VMs, wide)
			b := NewBroker(eng, env, f.factory)
			chk.track(env.VMs...)
			b.OnFinish(func(*Cloudlet) { chk.check("in a finish hook") })
			chk.check("after bind")

			id := 0
			submit := func(vm *VM, length float64, pes int) {
				b.Submit(NewCloudlet(id, length, pes, 0, 0), vm)
				id++
				chk.check(fmt.Sprintf("after Submit of cloudlet %d to VM %d", id-1, vm.ID))
			}
			for i := 0; i < 12; i++ {
				submit(env.VMs[i%len(env.VMs)], float64(1000+700*i), 1+i%2)
			}
			for _, at := range []float64{0.5, 1.5, 2.5, 4.5} {
				eng.ScheduleAt(at, sim.PriorityDefault, func() {
					for j := 0; j < 3; j++ {
						submit(env.VMs[j], 1500, 1)
					}
				})
			}
			// Drain a VM by hand and resubmit its cloudlets elsewhere.
			eng.ScheduleAt(1.2, sim.PriorityDefault, func() {
				for _, c := range env.VMs[1].Scheduler().Drain() {
					chk.check("after Drain")
					b.Submit(c, env.VMs[2])
					chk.check("after resubmitting a drained cloudlet")
				}
				chk.check("after Drain")
			})
			fresh := NewVM(10, 1500, 1, 512, 500, 5000)
			eng.ScheduleAt(2, sim.PriorityDefault, func() {
				if err := b.ProvisionVM(fresh, f.factory, 0); err != nil {
					t.Fatal(err)
				}
				chk.track(fresh)
				chk.check("after ProvisionVM")
				submit(fresh, 4000, 1)
			})
			if err := b.FailVM(env.VMs[0], 3, LeastLoadedFailover); err != nil {
				t.Fatal(err)
			}
			eng.ScheduleAt(3.5, sim.PriorityDefault, func() {
				if err := b.DecommissionVM(wide, nil); err != nil {
					t.Fatal(err)
				}
				chk.check("after DecommissionVM")
			})
			eng.Run()
			chk.check("after the run")
			if b.Migrations() == 0 {
				t.Fatal("no migration happened: the failure and decommission steps tested nothing")
			}
			if got, want := len(b.Finished()), id; got != want {
				t.Fatalf("finished %d of %d cloudlets", got, want)
			}
			if chk.checks < 3*id {
				t.Fatalf("only %d checks for %d cloudlets", chk.checks, id)
			}
		})
	}
}

// TestResidencyFieldFollowsRebind binds the same VMs to a second broker
// while the first engine still has work in flight. The first engine's
// completions must not overwrite the residency of the VM's new scheduler.
func TestResidencyFieldFollowsRebind(t *testing.T) {
	for _, f := range []struct {
		name    string
		factory SchedulerFactory
	}{{"time-shared", TimeSharedFactory}, {"space-shared", SpaceSharedFactory}} {
		t.Run(f.name, func(t *testing.T) {
			env := testEnv(t, 2, 1000)
			vm := env.VMs[0]
			chk := &residencyCheck{t: t}
			chk.track(env.VMs...)
			first := sim.NewEngine(sim.WithTracer(chk))
			b1 := NewBroker(first, env, f.factory)
			for i := 0; i < 3; i++ {
				b1.Submit(NewCloudlet(i, float64(1000*(i+1)), 1, 0, 0), vm)
			}
			old := vm.Scheduler()
			if vm.QueuedOrRunning() != 3 {
				t.Fatalf("first broker: %d resident, want 3", vm.QueuedOrRunning())
			}

			second := sim.NewEngine(sim.WithTracer(chk))
			b2 := NewBroker(second, env, f.factory)
			if vm.Scheduler() == old {
				t.Fatal("second broker did not rebind the VM")
			}
			chk.check("after rebind")
			b2.Submit(NewCloudlet(10, 500, 1, 0, 0), vm)
			chk.check("after Submit on the second broker")

			// The first engine runs the old scheduler to the end, checked
			// before every one of its events.
			first.Run()
			if old.Resident() != 0 || len(b1.Finished()) != 3 {
				t.Fatalf("first engine: %d still resident, %d finished", old.Resident(), len(b1.Finished()))
			}
			if got := vm.QueuedOrRunning(); got != 1 {
				t.Fatalf("after the first engine ran out: QueuedOrRunning()=%d, want the second scheduler's 1", got)
			}
			second.Run()
			chk.check("after the second run")
			if vm.QueuedOrRunning() != 0 || len(b2.Finished()) != 1 {
				t.Fatalf("second engine: %d resident, %d finished", vm.QueuedOrRunning(), len(b2.Finished()))
			}
		})
	}
}
