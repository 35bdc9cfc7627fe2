package workload

import (
	"fmt"
	"math"

	"bioschedsim/internal/xrand"
)

// Arrival-process generators: the workload side of the capacity-planning
// harness. A capacity question ("will this fleet sustain rate R within a
// p99 SLO of X?") is only as good as its arrival model, so the paper's
// batch-at-zero submission is extended with three seeded processes —
// memoryless (Poisson), bursty (2-state MMPP), and slowly modulated
// (diurnal). Every process is a pure function of (n, seed): offsets are
// sorted, non-negative, and bit-reproducible, each process drawing from its
// own xrand stream (Poisson 5, MMPP 8, diurnal 9) so mixing processes under
// one root seed never correlates their draws.

// ArrivalProcess generates submission offsets (seconds from batch start).
type ArrivalProcess interface {
	// Name identifies the process in specs, traces, and reports.
	Name() string
	// Rate returns the long-run mean arrival rate (arrivals per second).
	Rate() float64
	// Offsets draws n arrival offsets, sorted ascending and non-negative,
	// as a pure function of (n, seed).
	Offsets(n int, seed uint64) ([]float64, error)
	// Validate rejects unusable parameters (non-finite or non-positive
	// rates, out-of-range modulation) before any drawing happens.
	Validate() error
}

// finiteRate reports whether v is a usable positive, finite rate or
// duration parameter.
func finiteRate(v float64) bool {
	return v > 0 && !math.IsInf(v, 1) && !math.IsNaN(v)
}

// checkCount rejects a negative count of what before anything is sized by
// it: the scenario builders, SyntheticTraceFrom and the arrival processes
// all check their counts here.
func checkCount(what string, n int) error {
	if n < 0 {
		return fmt.Errorf("workload: negative %s count %d", what, n)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Poisson

// Poisson is the memoryless arrival process: i.i.d. exponential
// interarrivals at Rate. Offsets draws from stream (seed, 5) with the exact
// sequence PoissonArrivals always used, so existing seeds reproduce
// bit-identical offsets (pinned by TestPoissonArrivalsGolden).
type Poisson struct {
	Rate_ float64 // arrivals per second
}

// NewPoisson returns a validated Poisson process.
func NewPoisson(rate float64) (Poisson, error) {
	p := Poisson{Rate_: rate}
	return p, p.Validate()
}

// Name implements ArrivalProcess.
func (p Poisson) Name() string { return "poisson" }

// Rate implements ArrivalProcess.
func (p Poisson) Rate() float64 { return p.Rate_ }

// Validate implements ArrivalProcess.
func (p Poisson) Validate() error {
	if !finiteRate(p.Rate_) {
		return fmt.Errorf("workload: arrival rate must be positive, got %v", p.Rate_)
	}
	return nil
}

// Offsets implements ArrivalProcess.
func (p Poisson) Offsets(n int, seed uint64) ([]float64, error) {
	if err := checkCount("arrival", n); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := xrand.New(seed, 5)
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += r.ExpFloat64() / p.Rate_
		out[i] = t
	}
	return out, nil
}

// PoissonArrivals draws n arrival offsets (seconds from batch start) from a
// Poisson process with the given rate (arrivals per second), sorted
// ascending, using stream (seed, 5). It models the dynamic demand of §I
// ("the demands for resources change dynamically") as an extension to the
// paper's batch-at-zero submission. It is Poisson{rate}.Offsets under the
// historical name; the draw sequence is unchanged.
func PoissonArrivals(n int, rate float64, seed uint64) ([]float64, error) {
	return Poisson{Rate_: rate}.Offsets(n, seed)
}

// ---------------------------------------------------------------------------
// MMPP (bursty)

// MMPP is a two-state Markov-modulated Poisson process: arrivals are
// Poisson at RateA while the hidden state sojourns in A (exponential mean
// SojournA seconds), then at RateB in state B, and so on — the standard
// bursty-traffic model (a calm state punctuated by high-rate bursts). The
// state chain starts in A. Offsets draws from stream (seed, 8) using
// competing exponentials: each step advances by Exp(rate+switch) and
// resolves arrival-vs-switch by one uniform draw, so the whole trajectory
// is one deterministic stream.
type MMPP struct {
	RateA, RateB       float64 // arrival rates in states A and B
	SojournA, SojournB float64 // mean state holding times, seconds
}

// NewMMPP returns a validated MMPP process.
func NewMMPP(rateA, rateB, sojournA, sojournB float64) (MMPP, error) {
	p := MMPP{RateA: rateA, RateB: rateB, SojournA: sojournA, SojournB: sojournB}
	return p, p.Validate()
}

// Name implements ArrivalProcess.
func (p MMPP) Name() string { return "mmpp" }

// Rate implements ArrivalProcess: the stationary mean rate
// π_A·RateA + π_B·RateB with π_A = SojournA/(SojournA+SojournB).
func (p MMPP) Rate() float64 {
	piA := p.SojournA / (p.SojournA + p.SojournB)
	return piA*p.RateA + (1-piA)*p.RateB
}

// Validate implements ArrivalProcess.
func (p MMPP) Validate() error {
	for _, v := range []struct {
		name string
		v    float64
	}{{"RateA", p.RateA}, {"RateB", p.RateB}, {"SojournA", p.SojournA}, {"SojournB", p.SojournB}} {
		if !finiteRate(v.v) {
			return fmt.Errorf("workload: mmpp %s must be positive and finite, got %v", v.name, v.v)
		}
	}
	return nil
}

// Offsets implements ArrivalProcess.
func (p MMPP) Offsets(n int, seed uint64) ([]float64, error) {
	if err := checkCount("arrival", n); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := xrand.New(seed, 8)
	out := make([]float64, 0, n)
	rate, sw := p.RateA, 1/p.SojournA
	otherRate, otherSw := p.RateB, 1/p.SojournB
	t := 0.0
	for len(out) < n {
		total := rate + sw
		t += r.ExpFloat64() / total
		if r.Float64()*total < rate {
			out = append(out, t)
		} else {
			rate, otherRate = otherRate, rate
			sw, otherSw = otherSw, sw
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Diurnal (sinusoidally modulated)

// Diurnal is a non-homogeneous Poisson process with intensity
//
//	λ(t) = BaseRate · (1 + Amplitude·sin(2πt/Period))
//
// — the day/night demand cycle every production fleet sees. The long-run
// mean rate is BaseRate (the sine averages out). Offsets draws from stream
// (seed, 9) by Lewis–Shedler thinning against the peak rate
// BaseRate·(1+Amplitude), which is exact for sinusoidal intensities.
type Diurnal struct {
	BaseRate  float64 // mean arrivals per second
	Amplitude float64 // modulation depth in [0, 1)
	Period    float64 // seconds per cycle
}

// NewDiurnal returns a validated Diurnal process.
func NewDiurnal(base, amplitude, period float64) (Diurnal, error) {
	p := Diurnal{BaseRate: base, Amplitude: amplitude, Period: period}
	return p, p.Validate()
}

// Name implements ArrivalProcess.
func (p Diurnal) Name() string { return "diurnal" }

// Rate implements ArrivalProcess.
func (p Diurnal) Rate() float64 { return p.BaseRate }

// Validate implements ArrivalProcess.
func (p Diurnal) Validate() error {
	if !finiteRate(p.BaseRate) {
		return fmt.Errorf("workload: diurnal base rate must be positive and finite, got %v", p.BaseRate)
	}
	if math.IsNaN(p.Amplitude) || p.Amplitude < 0 || p.Amplitude >= 1 {
		return fmt.Errorf("workload: diurnal amplitude must be in [0, 1), got %v", p.Amplitude)
	}
	if !finiteRate(p.Period) {
		return fmt.Errorf("workload: diurnal period must be positive and finite, got %v", p.Period)
	}
	return nil
}

// Offsets implements ArrivalProcess.
func (p Diurnal) Offsets(n int, seed uint64) ([]float64, error) {
	if err := checkCount("arrival", n); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := xrand.New(seed, 9)
	peak := p.BaseRate * (1 + p.Amplitude)
	out := make([]float64, 0, n)
	t := 0.0
	for len(out) < n {
		t += r.ExpFloat64() / peak
		lambda := p.BaseRate * (1 + p.Amplitude*math.Sin(2*math.Pi*t/p.Period))
		if r.Float64()*peak <= lambda {
			out = append(out, t)
		}
	}
	return out, nil
}
