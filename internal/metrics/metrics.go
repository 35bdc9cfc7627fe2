// Package metrics computes the paper's performance measurements (§VI-C):
// scheduling time, simulation time (Eq. 12), degree of time imbalance
// (Eq. 13), and processing cost, plus supporting utilization and fairness
// measures used by the ablations.
package metrics

import (
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/sim"
)

// SimulationTime implements Eq. 12 over finished cloudlets:
// T_sim = max(FinishTime) − min(StartTime). It returns 0 for an empty set.
func SimulationTime(cloudlets []*cloud.Cloudlet) sim.Time {
	return CollectRunStats(cloudlets).SimTime()
}

// TimeImbalance implements Eq. 13: (T_max − T_min) / T_avg over cloudlet
// execution times. Zero means perfectly even execution; it returns 0 for an
// empty set or when the average execution time is 0.
func TimeImbalance(cloudlets []*cloud.Cloudlet) float64 {
	return CollectRunStats(cloudlets).Imbalance()
}

// ProcessingCost sums the per-cloudlet datacenter prices (§VI-C-4).
func ProcessingCost(cloudlets []*cloud.Cloudlet) float64 {
	return cloud.TotalProcessingCost(cloudlets)
}

// MeanExecTime returns the average cloudlet execution time.
func MeanExecTime(cloudlets []*cloud.Cloudlet) sim.Time {
	if len(cloudlets) == 0 {
		return 0
	}
	var sum sim.Time
	for _, c := range cloudlets {
		sum += c.ExecTime()
	}
	return sum / sim.Time(len(cloudlets))
}

// MeanWaitTime returns the average queueing delay before execution.
func MeanWaitTime(cloudlets []*cloud.Cloudlet) sim.Time {
	if len(cloudlets) == 0 {
		return 0
	}
	var sum sim.Time
	for _, c := range cloudlets {
		sum += c.WaitTime()
	}
	return sum / sim.Time(len(cloudlets))
}

// CountImbalance applies Eq. 13's shape to per-VM cloudlet counts:
// (count_max − count_min) / count_avg over the VMs. This is the
// "equal number of Cloudlets" notion of balance the paper's §VI-D2
// narrative uses to explain Figure 6c — the base test is 0 by construction.
// VMs that received nothing count as zero.
func CountImbalance(cloudlets []*cloud.Cloudlet, vms []*cloud.VM) float64 {
	if len(vms) == 0 || len(cloudlets) == 0 {
		return 0
	}
	counts := make(map[*cloud.VM]int, len(vms))
	for _, c := range cloudlets {
		if c.VM != nil {
			counts[c.VM]++
		}
	}
	min, max, sum := counts[vms[0]], counts[vms[0]], 0
	for _, vm := range vms {
		n := counts[vm]
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
		sum += n
	}
	if sum == 0 {
		return 0
	}
	avg := float64(sum) / float64(len(vms))
	return (float64(max) - float64(min)) / avg
}

// SLAComplianceRate returns the fraction of deadline-bearing cloudlets that
// met their deadline; 1.0 when none carry deadlines.
func SLAComplianceRate(cloudlets []*cloud.Cloudlet) float64 {
	constrained, met := 0, 0
	for _, c := range cloudlets {
		if c.Deadline == 0 {
			continue
		}
		constrained++
		if c.MetDeadline() {
			met++
		}
	}
	if constrained == 0 {
		return 1
	}
	return float64(met) / float64(constrained)
}

// JainFairness computes Jain's fairness index over per-VM assigned work
// (Σx)²/(n·Σx²): 1.0 is perfectly fair, 1/n is maximally unfair. VMs that
// received no cloudlets count with zero load.
func JainFairness(cloudlets []*cloud.Cloudlet, vms []*cloud.VM) float64 {
	if len(vms) == 0 {
		return 0
	}
	load := make(map[*cloud.VM]float64, len(vms))
	for _, c := range cloudlets {
		if c.VM != nil {
			load[c.VM] += c.Length
		}
	}
	var sum, sumSq float64
	for _, vm := range vms {
		x := load[vm]
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(vms)) * sumSq)
}

// Report is the full per-run measurement record the experiment harness
// stores for each (algorithm, scenario) point.
type Report struct {
	Algorithm      string
	Cloudlets      int
	VMs            int
	SchedulingTime time.Duration // wall-clock spent inside Scheduler.Schedule
	SimTime        sim.Time      // Eq. 12, simulated seconds
	Imbalance      float64       // Eq. 13 (per-cloudlet execution times)
	CountImbalance float64       // Eq. 13's shape over per-VM counts (§VI-D2 narrative)
	Cost           float64       // §VI-C-4
	Fairness       float64       // Jain's index over assigned MI
	SLACompliance  float64       // fraction of deadline-bearing cloudlets on time
	EnergyJoules   float64       // plant energy over the horizon (set by harnesses that model power)
	MeanExec       sim.Time
	MeanWait       sim.Time
}

// Collect assembles a Report from a finished run.
func Collect(algorithm string, finished []*cloud.Cloudlet, vms []*cloud.VM, schedTime time.Duration) Report {
	stats := CollectRunStats(finished)
	return Report{
		Algorithm:      algorithm,
		Cloudlets:      len(finished),
		VMs:            len(vms),
		SchedulingTime: schedTime,
		SimTime:        stats.SimTime(),
		Imbalance:      stats.Imbalance(),
		CountImbalance: CountImbalance(finished, vms),
		Cost:           ProcessingCost(finished),
		Fairness:       JainFairness(finished, vms),
		SLACompliance:  SLAComplianceRate(finished),
		MeanExec:       MeanExecTime(finished),
		MeanWait:       MeanWaitTime(finished),
	}
}

// SimTimeMillis returns Eq. 12's value in the paper's milliseconds unit
// (Figs. 4 and 6a).
func (r Report) SimTimeMillis() float64 { return r.SimTime * 1000 }

// SchedulingHours returns the scheduling time in the paper's hours unit
// (Fig. 5).
func (r Report) SchedulingHours() float64 { return r.SchedulingTime.Hours() }

// SchedulingSeconds returns the scheduling time in seconds (Fig. 6b).
func (r Report) SchedulingSeconds() float64 { return r.SchedulingTime.Seconds() }
