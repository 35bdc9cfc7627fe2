// Package plan is the SLO-driven capacity-planning harness: it answers
// "will this fleet sustain arrival rate R within a pXX latency SLO of T?"
// by serving a seeded arrival process on a candidate fleet (the
// Kiefer–Wolfowitz recursion for a static central queue, the DES kernel
// for spread and elastic specs), recording per-cloudlet wait and latency
// (arrival → completion) into
// metrics.HistogramCore, and searching for the smallest fleet that meets
// the SLO. Experiment runs are driven by a spec file (workload, fleet,
// dispatch, SLO, success criteria) so every result is self-documenting and
// replayable: the same spec and seed reproduce the same verdict bit for
// bit.
//
// The engine's credibility rests on the package's qmodel differential
// (TestQModelDifferential): with queue dispatch the fleet is an exact M/M/c system whose
// mean wait is validated against internal/qmodel analytic oracles at
// ρ ∈ {0.3, 0.6, 0.9}. The recursion is in turn held bit for bit to the
// DES central queue, which the package's tests keep as its oracle.
package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"bioschedsim/internal/workload"
)

// Dispatch modes.
const (
	// DispatchQueue holds arrivals in one central FIFO and hands each to
	// a free PE. Every cloudlet needs one PE, so a static fleet under
	// queue dispatch is first-come-first-served over fleet × VMPes
	// identical servers: Run computes it by the Kiefer–Wolfowitz
	// recursion without the event list, and with Poisson arrivals it is
	// the exact M/M/c queue internal/check validates against analytic
	// oracles.
	DispatchQueue = "queue"
	// DispatchSpread submits each arrival immediately to the VM with the
	// fewest resident cloudlets (lowest ID on ties) — per-VM queues, the
	// shape elastic autoscaling monitors.
	DispatchSpread = "spread"
)

// WorkloadSpec selects and parameterizes the arrival process and the
// service-demand distribution.
type WorkloadSpec struct {
	// Process is one of "poisson", "mmpp", "diurnal".
	Process string `json:"process"`

	// Rate is the Poisson arrival rate (arrivals/s).
	Rate float64 `json:"rate,omitempty"`

	// MMPP parameters: arrival rates and mean sojourns of the two states.
	RateA    float64 `json:"rate_a,omitempty"`
	RateB    float64 `json:"rate_b,omitempty"`
	SojournA float64 `json:"sojourn_a,omitempty"`
	SojournB float64 `json:"sojourn_b,omitempty"`

	// Diurnal parameters.
	BaseRate  float64 `json:"base_rate,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`
	Period    float64 `json:"period,omitempty"`

	// Cloudlets is the number of arrivals to simulate; Warmup of them
	// (from the front) are executed but excluded from latency statistics
	// so the queue reaches steady state first.
	Cloudlets int `json:"cloudlets"`
	Warmup    int `json:"warmup,omitempty"`

	// MeanLengthMI is the mean of the exponential service-demand
	// distribution in million instructions (stream (seed, 6)). A VM with M
	// MIPS per PE serves at rate μ = M/MeanLengthMI cloudlets/s.
	MeanLengthMI float64 `json:"mean_length_mi"`
}

// Arrivals builds the configured arrival process.
func (w *WorkloadSpec) Arrivals() (workload.ArrivalProcess, error) {
	switch w.Process {
	case "poisson":
		return workload.NewPoisson(w.Rate)
	case "mmpp":
		return workload.NewMMPP(w.RateA, w.RateB, w.SojournA, w.SojournB)
	case "diurnal":
		return workload.NewDiurnal(w.BaseRate, w.Amplitude, w.Period)
	default:
		return nil, fmt.Errorf("plan: unknown arrival process %q (want poisson, mmpp, or diurnal)", w.Process)
	}
}

// FleetSpec describes the homogeneous VM fleet and its dispatch mode.
type FleetSpec struct {
	VMMips float64 `json:"vm_mips"` // per-PE MIPS of each VM
	VMPes  int     `json:"vm_pes"`  // PEs per VM

	// MinVMs/MaxVMs bound the fleet search (and the autoscaler, when the
	// spec is elastic).
	MinVMs int `json:"min_vms"`
	MaxVMs int `json:"max_vms"`

	// Dispatch is "queue" (central FIFO, exact M/M/c) or "spread"
	// (per-VM queues, least-outstanding). Defaults to "queue".
	Dispatch string `json:"dispatch,omitempty"`
}

// SLOSpec is the success criterion: the Quantile of the latency
// (arrival → completion) distribution must not exceed TargetSeconds.
type SLOSpec struct {
	Quantile      float64 `json:"quantile"` // e.g. 0.99
	TargetSeconds float64 `json:"target_seconds"`
}

// ElasticSpec switches the run to an autoscaled fleet: the fleet starts at
// MinVMs and internal/elastic's threshold rules grow or shrink it between
// the fleet bounds. Elastic runs always use spread dispatch — the
// autoscaler triggers on per-VM residency, which a central queue hides.
type ElasticSpec struct {
	ScaleUpLoad   float64 `json:"scale_up_load"`
	ScaleDownLoad float64 `json:"scale_down_load"`
	Interval      float64 `json:"interval"` // monitoring period, seconds
	BootDelay     float64 `json:"boot_delay,omitempty"`
}

// Spec is a complete capacity-planning experiment: everything needed to
// reproduce a verdict lives in the file plus one seed.
type Spec struct {
	Name     string       `json:"name"`
	Workload WorkloadSpec `json:"workload"`
	Fleet    FleetSpec    `json:"fleet"`
	SLO      SLOSpec      `json:"slo"`
	Seed     uint64       `json:"seed"`
	Elastic  *ElasticSpec `json:"elastic,omitempty"`
}

// finitePos reports v > 0 and finite.
func finitePos(v float64) bool {
	return v > 0 && !math.IsNaN(v) && !math.IsInf(v, 1)
}

// Validate rejects unusable specs with positioned messages — the same
// hardening bar as workload.ReadTrace: NaN/Inf and non-positive rates,
// targets, and demands never reach the engine.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("plan: spec needs a name")
	}
	proc, err := s.Workload.Arrivals()
	if err != nil {
		return err
	}
	if err := proc.Validate(); err != nil {
		return err
	}
	if s.Workload.Cloudlets <= 0 {
		return fmt.Errorf("plan: workload.cloudlets must be positive, got %d", s.Workload.Cloudlets)
	}
	if s.Workload.Warmup < 0 || s.Workload.Warmup >= s.Workload.Cloudlets {
		return fmt.Errorf("plan: workload.warmup %d out of range [0, %d)", s.Workload.Warmup, s.Workload.Cloudlets)
	}
	if !finitePos(s.Workload.MeanLengthMI) {
		return fmt.Errorf("plan: workload.mean_length_mi must be positive and finite, got %v", s.Workload.MeanLengthMI)
	}
	if !finitePos(s.Fleet.VMMips) {
		return fmt.Errorf("plan: fleet.vm_mips must be positive and finite, got %v", s.Fleet.VMMips)
	}
	if s.Fleet.VMPes <= 0 {
		return fmt.Errorf("plan: fleet.vm_pes must be positive, got %d", s.Fleet.VMPes)
	}
	if s.Fleet.MinVMs < 1 {
		return fmt.Errorf("plan: fleet.min_vms must be at least 1, got %d", s.Fleet.MinVMs)
	}
	if s.Fleet.MaxVMs < s.Fleet.MinVMs {
		return fmt.Errorf("plan: fleet.max_vms %d below fleet.min_vms %d", s.Fleet.MaxVMs, s.Fleet.MinVMs)
	}
	switch s.Fleet.Dispatch {
	case "", DispatchQueue, DispatchSpread:
	default:
		return fmt.Errorf("plan: fleet.dispatch %q unknown (want %q or %q)", s.Fleet.Dispatch, DispatchQueue, DispatchSpread)
	}
	if math.IsNaN(s.SLO.Quantile) || s.SLO.Quantile <= 0 || s.SLO.Quantile >= 1 {
		return fmt.Errorf("plan: slo.quantile must be in (0, 1), got %v", s.SLO.Quantile)
	}
	if !finitePos(s.SLO.TargetSeconds) {
		return fmt.Errorf("plan: slo.target_seconds must be positive and finite, got %v", s.SLO.TargetSeconds)
	}
	if e := s.Elastic; e != nil {
		if !finitePos(e.Interval) {
			return fmt.Errorf("plan: elastic.interval must be positive and finite, got %v", e.Interval)
		}
		if math.IsNaN(e.ScaleUpLoad) || math.IsNaN(e.ScaleDownLoad) || e.ScaleUpLoad <= e.ScaleDownLoad {
			return fmt.Errorf("plan: elastic.scale_up_load (%v) must exceed elastic.scale_down_load (%v)", e.ScaleUpLoad, e.ScaleDownLoad)
		}
		if e.BootDelay < 0 || math.IsNaN(e.BootDelay) || math.IsInf(e.BootDelay, 0) {
			return fmt.Errorf("plan: elastic.boot_delay must be finite and non-negative, got %v", e.BootDelay)
		}
	}
	return nil
}

// DispatchMode returns the effective dispatch: the spec's, with queue as
// the default, and spread forced for elastic specs.
func (s *Spec) DispatchMode() string {
	if s.Elastic != nil {
		return DispatchSpread
	}
	if s.Fleet.Dispatch == "" {
		return DispatchQueue
	}
	return s.Fleet.Dispatch
}

// ServiceRate returns μ, the per-PE service rate implied by the workload
// and fleet (cloudlets per second per processing element).
func (s *Spec) ServiceRate() float64 {
	return s.Fleet.VMMips / s.Workload.MeanLengthMI
}

// ParseSpec decodes and validates a spec from JSON bytes. Unknown fields
// are rejected — a typoed knob silently reverting to a default would make
// the "self-documenting run" lie.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("plan: parsing spec: %w", err)
	}
	// A second document in the same file is a concatenation mistake, not
	// configuration.
	if dec.More() {
		return nil, fmt.Errorf("plan: trailing data after spec document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ReadSpec loads a spec file from disk.
func ReadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("plan: reading spec: %w", err)
	}
	return ParseSpec(data)
}
