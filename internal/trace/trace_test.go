package trace

import (
	"sort"
	"strings"
	"testing"

	"bioschedsim/internal/cloud"
)

func finished(id int, submit, start, finish float64, vmID int) *cloud.Cloudlet {
	c := cloud.NewCloudlet(id, 100, 1, 0, 0)
	c.SubmitTime, c.StartTime, c.FinishTime = submit, start, finish
	c.Status = cloud.CloudletFinished
	c.VM = cloud.NewVM(vmID, 1000, 1, 512, 500, 5000)
	return c
}

func TestKindString(t *testing.T) {
	if Submit.String() != "submit" || Start.String() != "start" || Finish.String() != "finish" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestFromFinishedOrdering(t *testing.T) {
	tl := FromFinished([]*cloud.Cloudlet{
		finished(0, 0, 1, 5, 0),
		finished(1, 0, 0, 3, 1),
	})
	if tl.Len() != 6 {
		t.Fatalf("events: %d", tl.Len())
	}
	events := tl.Events()
	times := make([]float64, len(events))
	for i, e := range events {
		times[i] = e.Time
	}
	if !sort.Float64sAreSorted(times) {
		t.Fatalf("events not time-ordered: %v", times)
	}
	// At t=0: submits before starts.
	if events[0].Kind > events[2].Kind {
		t.Fatalf("tie-break violated: %v", events[:3])
	}
}

func TestWriteCSV(t *testing.T) {
	tl := FromFinished([]*cloud.Cloudlet{finished(7, 0, 1, 2, 3)})
	var b strings.Builder
	if err := tl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv: %v", lines)
	}
	if lines[0] != "time,kind,cloudlet,vm" {
		t.Fatalf("header: %q", lines[0])
	}
	if lines[1] != "0,submit,7,3" {
		t.Fatalf("first row: %q", lines[1])
	}
	if lines[3] != "2,finish,7,3" {
		t.Fatalf("last row: %q", lines[3])
	}
}

func TestGantt(t *testing.T) {
	out := Gantt([]*cloud.Cloudlet{
		finished(0, 0, 0, 10, 0),
		finished(1, 0, 5, 10, 1),
	}, 20)
	if !strings.Contains(out, "vm0") || !strings.Contains(out, "vm1") {
		t.Fatalf("missing VM rows:\n%s", out)
	}
	rows := strings.Split(strings.TrimSpace(out), "\n")
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	// vm0 busy the whole horizon: no '.' inside its bar.
	vm0 := rows[1]
	bar := vm0[strings.Index(vm0, "|")+1 : strings.LastIndex(vm0, "|")]
	if strings.Contains(bar, ".") {
		t.Fatalf("vm0 should be fully busy: %q", bar)
	}
	// vm1 busy the second half only.
	vm1 := rows[2]
	bar1 := vm1[strings.Index(vm1, "|")+1 : strings.LastIndex(vm1, "|")]
	if !strings.Contains(bar1, ".") || !strings.Contains(bar1, "#") {
		t.Fatalf("vm1 should be half busy: %q", bar1)
	}
}

func TestGanttDegenerate(t *testing.T) {
	if got := Gantt(nil, 20); got != "(no executions)\n" {
		t.Fatalf("empty: %q", got)
	}
	noVM := cloud.NewCloudlet(0, 100, 1, 0, 0)
	if got := Gantt([]*cloud.Cloudlet{noVM}, 20); got != "(no executions)\n" {
		t.Fatalf("no-vm: %q", got)
	}
}

func TestEndToEndTimeline(t *testing.T) {
	// Real execution: timeline invariants hold for every cloudlet.
	host := cloud.NewHost(0, cloud.NewPEs(4, 1000), 1<<16, 1<<20, 1<<30)
	cloud.NewDatacenter(0, "dc", cloud.Characteristics{}, []*cloud.Host{host})
	vm := cloud.NewVM(0, 1000, 1, 512, 500, 5000)
	if err := host.Place(vm); err != nil {
		t.Fatal(err)
	}
	env := &cloud.Environment{Datacenters: []*cloud.Datacenter{host.Datacenter}, VMs: []*cloud.VM{vm}}
	cls := make([]*cloud.Cloudlet, 5)
	vms := make([]*cloud.VM, 5)
	for i := range cls {
		cls[i] = cloud.NewCloudlet(i, 100*float64(i+1), 1, 0, 0)
		vms[i] = vm
	}
	res, err := cloud.Execute(env, cloud.TimeSharedFactory, cls, vms)
	if err != nil {
		t.Fatal(err)
	}
	tl := FromFinished(res.Finished)
	if tl.Len() != 15 {
		t.Fatalf("events: %d", tl.Len())
	}
	for _, e := range tl.Events() {
		if e.Time < 0 {
			t.Fatalf("negative time: %+v", e)
		}
		if e.VM != 0 {
			t.Fatalf("wrong VM: %+v", e)
		}
	}
}
