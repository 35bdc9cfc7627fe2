package cloud

import (
	"fmt"
	"sort"

	"bioschedsim/internal/sim"
)

// LinearPower maps a host's CPU utilization (0..1) to power draw
// in watts: Idle watts at zero utilization, scaling linearly to Max at full
// utilization — the classic server model of CloudSim's power package. The
// paper's related work motivates energy-aware scheduling ([27]); HostEnergy
// uses it to account for the energy consequences of an assignment.
type LinearPower struct {
	Idle float64 // watts at 0% utilization
	Max  float64 // watts at 100% utilization
}

// Power returns watts at utilization u, clamped into [0,1].
func (p LinearPower) Power(u float64) float64 {
	return p.Idle + (p.Max-p.Idle)*min(max(u, 0), 1)
}

// EnergyReport summarizes a run's energy accounting.
type EnergyReport struct {
	TotalJoules float64           // plant-wide energy over the horizon
	PerHost     map[*Host]float64 // joules per host
	Horizon     sim.Time          // accounting window (0..makespan)
}

// busyWindow is a VM's [start, end) activity interval.
type busyWindow struct{ start, end sim.Time }

// HostEnergy integrates a run's energy use per host under the given power
// model. The utilization model matches the time-shared execution semantics:
// a VM contributes its full reserved capacity to its host's utilization
// while it has resident cloudlets (first start to last finish of the
// cloudlets assigned to it), and nothing outside that busy window. The
// accounting horizon runs from 0 to the latest finish time; hosts draw
// their idle power whenever no resident VM is busy.
func HostEnergy(env *Environment, finished []*Cloudlet, model LinearPower) (*EnergyReport, error) {
	busy := map[*VM]busyWindow{}
	var horizon sim.Time
	for _, c := range finished {
		if c.VM == nil {
			return nil, fmt.Errorf("cloud: cloudlet %d has no VM; run it first", c.ID)
		}
		w, ok := busy[c.VM]
		if !ok {
			w = busyWindow{start: c.StartTime, end: c.FinishTime}
		} else {
			if c.StartTime < w.start {
				w.start = c.StartTime
			}
			if c.FinishTime > w.end {
				w.end = c.FinishTime
			}
		}
		busy[c.VM] = w
		if c.FinishTime > horizon {
			horizon = c.FinishTime
		}
	}

	report := &EnergyReport{PerHost: make(map[*Host]float64), Horizon: horizon}
	for _, host := range env.Hosts() {
		joules := hostEnergyOne(host, busy, model, horizon)
		report.PerHost[host] = joules
		report.TotalJoules += joules
	}
	return report, nil
}

// hostEnergyOne integrates one host's piecewise-constant utilization over
// [0, horizon]: utilization changes only at VM busy-window boundaries, so
// energy is the sum over segments of P(u) × dt.
func hostEnergyOne(host *Host, busy map[*VM]busyWindow, model LinearPower, horizon sim.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	type edge struct {
		t     sim.Time
		delta float64 // capacity change in MIPS (+ on start, − on end)
	}
	var edges []edge
	for _, vm := range host.VMs() {
		w, ok := busy[vm]
		if !ok || w.end <= w.start {
			continue
		}
		edges = append(edges, edge{t: w.start, delta: vm.Capacity()})
		edges = append(edges, edge{t: w.end, delta: -vm.Capacity()})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })

	total := host.TotalMIPS()
	var joules float64
	var used float64
	prev := sim.Time(0)
	for _, e := range edges {
		if e.t > prev {
			joules += model.Power(used/total) * (e.t - prev)
			prev = e.t
		}
		used += e.delta
	}
	if horizon > prev {
		joules += model.Power(used/total) * (horizon - prev)
	}
	return joules
}
