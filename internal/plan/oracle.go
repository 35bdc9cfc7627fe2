package plan

import (
	"fmt"

	"bioschedsim/internal/qmodel"
)

// OracleCase is one qmodel-differential configuration: a homogeneous
// fleet exposed to Poisson arrivals at offered load Rho per server, whose
// simulated mean wait must agree with the analytic M/M/1 (Servers == 1) or
// M/M/c oracle within Tol relative error. The package's differential
// tests and `cloudsched plan oracle` both run exactly this, so a failing
// case prints a replay line that reproduces the differential outside the
// test harness.
type OracleCase struct {
	Rho     float64 // offered load λ/(c·μ), in (0, 1)
	Servers int     // total service channels c (PEs across the fleet)
	VMs     int     // VM count; Servers/VMs PEs each (must divide evenly)
	N       int     // arrivals to simulate
	Warmup  int     // leading arrivals excluded from statistics
	Mu      float64 // per-channel service rate, cloudlets/s
	Seed    uint64
	Tol     float64 // relative-error band
}

// Validate rejects unusable cases.
func (c OracleCase) Validate() error {
	if !finitePos(c.Rho) || c.Rho >= 1 {
		return fmt.Errorf("plan: oracle rho must be in (0, 1), got %v", c.Rho)
	}
	if c.Servers < 1 || c.VMs < 1 || c.Servers%c.VMs != 0 {
		return fmt.Errorf("plan: oracle needs servers (%d) divisible by vms (%d), both positive", c.Servers, c.VMs)
	}
	if c.N <= 0 || c.Warmup < 0 || c.Warmup >= c.N {
		return fmt.Errorf("plan: oracle needs 0 ≤ warmup (%d) < n (%d)", c.Warmup, c.N)
	}
	if !finitePos(c.Mu) {
		return fmt.Errorf("plan: oracle mu must be positive and finite, got %v", c.Mu)
	}
	if !finitePos(c.Tol) {
		return fmt.Errorf("plan: oracle tol must be positive and finite, got %v", c.Tol)
	}
	return nil
}

// Lambda returns the arrival rate λ = Rho·Servers·Mu.
func (c OracleCase) Lambda() float64 { return c.Rho * float64(c.Servers) * c.Mu }

// Spec materializes the case as a capacity-planning spec: queue dispatch
// (the exact-M/M/c configuration), a pinned fleet, and a per-PE MIPS of
// 1000 with the mean demand chosen so μ comes out exactly.
func (c OracleCase) Spec() *Spec {
	return &Spec{
		Name: fmt.Sprintf("oracle-rho%g-c%d", c.Rho, c.Servers),
		Workload: WorkloadSpec{
			Process:      "poisson",
			Rate:         c.Lambda(),
			Cloudlets:    c.N,
			Warmup:       c.Warmup,
			MeanLengthMI: 1000 / c.Mu,
		},
		Fleet: FleetSpec{
			VMMips:   1000,
			VMPes:    c.Servers / c.VMs,
			MinVMs:   c.VMs,
			MaxVMs:   c.VMs,
			Dispatch: DispatchQueue,
		},
		// The oracle judges mean wait directly; the SLO fields just have
		// to be valid.
		SLO:  SLOSpec{Quantile: 0.99, TargetSeconds: 1e9},
		Seed: c.Seed,
	}
}

// OracleResult is one differential measurement.
type OracleResult struct {
	SimMeanWait float64 // simulated mean queue wait, post-warmup
	TheoryWait  float64 // qmodel M/M/1 or M/M/c Wq
	RelErr      float64 // qmodel.RelativeError(sim, theory)
	Count       uint64  // recorded observations (must be N − Warmup)
}

// Pass reports whether the differential landed inside the band and every
// post-warmup sample was recorded.
func (r *OracleResult) Pass(c OracleCase) bool {
	return r.RelErr <= c.Tol && r.Count == uint64(c.N-c.Warmup)
}

// RunOracle executes the differential. opts carries the plant tests'
// broken process or recorder; pass nil for the real engine.
func (c OracleCase) RunOracle(opts *RunOptions) (*OracleResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	res, err := Run(c.Spec(), c.VMs, opts)
	if err != nil {
		return nil, err
	}
	var theory float64
	if c.Servers == 1 {
		theory, err = qmodel.MM1WaitQueue(c.Lambda(), c.Mu)
	} else {
		theory, err = qmodel.MMcWaitQueue(c.Lambda(), c.Mu, c.Servers)
	}
	if err != nil {
		return nil, err
	}
	sim := res.Recorder.MeanWait()
	return &OracleResult{
		SimMeanWait: sim,
		TheoryWait:  theory,
		RelErr:      qmodel.RelativeError(sim, theory),
		Count:       res.Recorder.Count(),
	}, nil
}

// ReplayCommand formats the case as a runnable one-liner.
func (c OracleCase) ReplayCommand() string {
	return OracleReplayCommand(c.Rho, c.Servers, c.VMs, c.N, c.Warmup, c.Mu, c.Seed, c.Tol)
}
