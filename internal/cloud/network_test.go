package cloud

import (
	"math"
	"testing"
	"testing/quick"

	"bioschedsim/internal/sim"
)

func TestTopologyDirectLink(t *testing.T) {
	topo := NewNetworkTopology()
	topo.AddNode("a")
	topo.AddNode("b")
	if err := topo.AddLink("a", "b", 0.01, 1000); err != nil {
		t.Fatal(err)
	}
	d, err := topo.Delay("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if d != 0.01 {
		t.Fatalf("delay: %v", d)
	}
	bw, err := topo.Bandwidth("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if bw != 1000 {
		t.Fatalf("bandwidth: %v", bw)
	}
	// 500 MB over 1000 Mbps + 10ms latency.
	tt, err := topo.TransferTime("a", "b", 500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tt-0.51) > 1e-12 {
		t.Fatalf("transfer time: %v", tt)
	}
}

func TestTopologyMultiHopShortestPath(t *testing.T) {
	topo := NewNetworkTopology()
	for _, n := range []string{"a", "b", "c"} {
		topo.AddNode(n)
	}
	// Direct a-c is slow; a-b-c is faster but bottlenecked at 100 Mbps.
	if err := topo.AddLink("a", "c", 1.0, 10000); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink("a", "b", 0.1, 1000); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink("b", "c", 0.1, 100); err != nil {
		t.Fatal(err)
	}
	d, _ := topo.Delay("a", "c")
	if math.Abs(d-0.2) > 1e-12 {
		t.Fatalf("shortest delay: %v", d)
	}
	bw, _ := topo.Bandwidth("a", "c")
	if bw != 100 {
		t.Fatalf("bottleneck bandwidth: %v", bw)
	}
}

func TestTopologySameNodeFree(t *testing.T) {
	topo := NewNetworkTopology()
	topo.AddNode("x")
	tt, err := topo.TransferTime("x", "x", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tt != 0 {
		t.Fatalf("same-node transfer: %v", tt)
	}
}

func TestTopologyUnreachable(t *testing.T) {
	topo := NewNetworkTopology()
	topo.AddNode("a")
	topo.AddNode("b")
	d, err := topo.Delay("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d, 1) {
		t.Fatalf("unreachable delay: %v", d)
	}
	bw, _ := topo.Bandwidth("a", "b")
	if bw != 0 {
		t.Fatalf("unreachable bandwidth: %v", bw)
	}
	tt, _ := topo.TransferTime("a", "b", 10)
	if !math.IsInf(tt, 1) {
		t.Fatalf("unreachable transfer: %v", tt)
	}
}

func TestTopologyErrors(t *testing.T) {
	topo := NewNetworkTopology()
	topo.AddNode("a")
	if err := topo.AddLink("a", "ghost", 1, 1); err == nil {
		t.Fatal("unknown node accepted")
	}
	if err := topo.AddLink("a", "a", 1, 1); err == nil {
		t.Fatal("self-link accepted")
	}
	topo.AddNode("b")
	if err := topo.AddLink("a", "b", -1, 1); err == nil {
		t.Fatal("negative latency accepted")
	}
	if err := topo.AddLink("a", "b", 1, 0); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := topo.Delay("ghost", "a"); err == nil {
		t.Fatal("unknown node query accepted")
	}
}

func TestTopologyAddNodeIdempotent(t *testing.T) {
	topo := NewNetworkTopology()
	i := topo.AddNode("a")
	if topo.AddNode("a") != i {
		t.Fatal("re-adding node changed index")
	}
	if len(topo.Nodes()) != 1 {
		t.Fatalf("nodes: %v", topo.Nodes())
	}
}

func TestTopologyRebuildAfterMutation(t *testing.T) {
	topo := NewNetworkTopology()
	topo.AddNode("a")
	topo.AddNode("b")
	if err := topo.AddLink("a", "b", 1.0, 100); err != nil {
		t.Fatal(err)
	}
	d, _ := topo.Delay("a", "b")
	if d != 1.0 {
		t.Fatalf("before: %v", d)
	}
	// Add a faster two-hop route; queries must see it without manual Build.
	topo.AddNode("c")
	if err := topo.AddLink("a", "c", 0.1, 100); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddLink("c", "b", 0.1, 100); err != nil {
		t.Fatal(err)
	}
	d, _ = topo.Delay("a", "b")
	if math.Abs(d-0.2) > 1e-12 {
		t.Fatalf("after rebuild: %v", d)
	}
}

func TestStarTopology(t *testing.T) {
	topo, err := NewStarTopology("broker", []string{"dc0", "dc1", "dc2"}, 0.005, 10000)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := topo.Delay("broker", "dc1")
	if d != 0.005 {
		t.Fatalf("hub delay: %v", d)
	}
	// Leaf to leaf goes through the hub.
	d, _ = topo.Delay("dc0", "dc2")
	if math.Abs(d-0.01) > 1e-12 {
		t.Fatalf("leaf-leaf delay: %v", d)
	}
}

// TestTopologyDelayMetricProperties: symmetry and triangle inequality hold
// for random star-ish topologies.
func TestTopologyDelayMetricProperties(t *testing.T) {
	f := func(lat1, lat2, lat3 uint16) bool {
		l1 := 0.001 + float64(lat1%1000)/1000
		l2 := 0.001 + float64(lat2%1000)/1000
		l3 := 0.001 + float64(lat3%1000)/1000
		topo := NewNetworkTopology()
		for _, n := range []string{"a", "b", "c"} {
			topo.AddNode(n)
		}
		if topo.AddLink("a", "b", l1, 100) != nil ||
			topo.AddLink("b", "c", l2, 100) != nil ||
			topo.AddLink("a", "c", l3, 100) != nil {
			return false
		}
		dab, _ := topo.Delay("a", "b")
		dba, _ := topo.Delay("b", "a")
		dbc, _ := topo.Delay("b", "c")
		dac, _ := topo.Delay("a", "c")
		if dab != dba {
			return false
		}
		return dac <= dab+dbc+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitAllSchedule(t *testing.T) {
	env := testEnv(t, 1, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	cls := []*Cloudlet{
		NewCloudlet(0, 100, 1, 0, 0),
		NewCloudlet(1, 100, 1, 0, 0),
	}
	vms := []*VM{env.VMs[0], env.VMs[0]}
	if err := b.SubmitAllSchedule(cls, vms, []sim.Time{0, 5}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if cls[0].SubmitTime != 0 || cls[1].SubmitTime != 5 {
		t.Fatalf("arrival times: %v %v", cls[0].SubmitTime, cls[1].SubmitTime)
	}
}

func TestSubmitAllScheduleErrors(t *testing.T) {
	env := testEnv(t, 1, 1000)
	eng := sim.NewEngine()
	b := NewBroker(eng, env, TimeSharedFactory)
	c := NewCloudlet(0, 100, 1, 0, 0)
	if err := b.SubmitAllSchedule([]*Cloudlet{c}, []*VM{env.VMs[0]}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	for _, a := range []sim.Time{-1, math.NaN(), math.Inf(1)} {
		if err := b.SubmitAllSchedule([]*Cloudlet{c}, []*VM{env.VMs[0]}, []sim.Time{a}); err == nil {
			t.Fatalf("arrival %v accepted", a)
		}
	}
}
