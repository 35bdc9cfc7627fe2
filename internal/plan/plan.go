package plan

import (
	"fmt"
	"math"
	"strconv"
)

// Probe is one measured fleet size inside a verdict, in probe order.
type Probe struct {
	Fleet         int
	PeakFleet     int
	Count         uint64
	MeanWait      float64
	QuantileValue float64 // latency at the spec's SLO quantile
	Met           bool
	ScaleUps      int
	ScaleDowns    int
}

// Verdict answers the capacity question for one spec.
type Verdict struct {
	Spec        *Spec
	Elastic     bool
	Sustainable bool
	// MinFleet is the smallest fleet meeting the SLO (static specs), or
	// the peak fleet the autoscaler reached (elastic specs). Zero when the
	// SLO is unreachable within the fleet bounds.
	MinFleet int
	Probes   []Probe
}

// probe measures the drawn workload at one fleet size with a fresh
// recorder, as Run would at that fleet, and appends the measurement.
func (v *Verdict) probe(w *draws, fleet int) (bool, error) {
	res, err := w.run(v.Spec, fleet, NewLatencyStats())
	if err != nil {
		return false, err
	}
	met := res.SLOMet(v.Spec)
	p := Probe{
		Fleet:         fleet,
		PeakFleet:     res.PeakFleet,
		Count:         res.Recorder.Count(),
		MeanWait:      res.Recorder.MeanWait(),
		QuantileValue: res.SLOValue(v.Spec),
		Met:           met,
		ScaleUps:      res.ScaleUps,
		ScaleDowns:    res.ScaleDowns,
	}
	v.Probes = append(v.Probes, p)
	return met, nil
}

// Plan answers "will this fleet sustain the workload within the SLO?". For
// static specs it searches [MinVMs, MaxVMs] for the smallest fleet that
// meets the SLO. It keeps bisection's bracket: L, the largest fleet known
// to miss (MinVMs−1 until one does), and H, the smallest known to meet
// (MaxVMs+1 until one does), with every probe strictly between them. The
// first probe is c₀ = ⌈λ̄/(μ·VMPes)⌉, the ρ = 1 point at the long-run
// arrival rate. Each later probe is steered by the quantiles already
// measured: a fleet interpolated, linearly in 1/QuantileValue, through the
// two probes nearest 1/TargetSeconds. Until both ends of the bracket are
// real probes the search steps toward the missing end, galloping by
// c₀/8·2^k after k+1 probes when the estimate points the other way or has
// been taken maxCreep times in a row. Once bracketed it bisects
// when the estimate is not finite or falls outside the bracket, and when
// the bracket has not halved over the last two probes. The search stops at
// H = L+1, the state bisection ends in, so where the passing region is an
// up-set (queue dispatch: a bigger fleet delays no cloudlet) MinFleet is
// bisection's answer; under spread dispatch MinFleet met and MinFleet−1
// missed or lies below MinVMs.
//
// For elastic specs Plan runs once from MinVMs and reports whether the
// autoscaler held the SLO and how big the fleet had to get. Every probe is
// recorded so the verdict documents its own evidence.
//
// Plan draws the workload once, from opts.Process when given (the process
// c₀ is computed from), and measures every probe on that draw with a fresh
// recorder, so each probe equals Run(spec, probe.Fleet, opts).
// opts.Recorder must be nil: a recorder shared by every probe would mix
// their samples.
func Plan(spec *Spec, opts *RunOptions) (*Verdict, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts != nil && opts.Recorder != nil {
		return nil, fmt.Errorf("plan: RunOptions.Recorder is per run; Plan probes many fleets and cannot share one")
	}
	proc, err := opts.arrivals(spec)
	if err != nil {
		return nil, err
	}
	w, err := draw(spec, proc)
	if err != nil {
		return nil, err
	}
	v := &Verdict{Spec: spec, Elastic: spec.Elastic != nil}
	probe := func(fleet int) (bool, error) { return v.probe(w, fleet) }
	if v.Elastic {
		met, err := probe(spec.Fleet.MinVMs)
		if err != nil {
			return nil, err
		}
		v.Sustainable = met
		if met {
			v.MinFleet = v.Probes[0].PeakFleet
		}
		return v, nil
	}
	c0 := clampFleet(math.Ceil(proc.Rate()/(spec.ServiceRate()*float64(spec.Fleet.VMPes))),
		spec.Fleet.MinVMs, spec.Fleet.MaxVMs)
	if err := v.search(c0, probe); err != nil {
		return nil, err
	}
	return v, nil
}

// search is Plan's static capacity search, starting at c0. probe measures
// one fleet, appends it to v.Probes and reports whether it met the SLO.
func (v *Verdict) search(c0 int, probe func(fleet int) (bool, error)) error {
	minVMs, maxVMs := v.Spec.Fleet.MinVMs, v.Spec.Fleet.MaxVMs
	step := max(c0/8, 1) // c₀/8·2^k

	lo, hi := minVMs-1, maxVMs+1 // L and H
	var widths []int             // hi−lo after each probe
	creep := 0                   // outward estimates taken in a row
	for next := c0; ; {
		met, err := probe(next)
		if err != nil {
			return err
		}
		if met {
			hi = next
		} else {
			lo = next
		}
		if hi == lo+1 {
			break
		}
		widths = append(widths, hi-lo)

		est := v.estimate() // NaN fails every comparison below
		switch {
		case creep < maxCreep && (hi > maxVMs && est > float64(lo) || lo < minVMs && est < float64(hi)):
			// One end of the bracket is missing and the estimate
			// points toward it.
			next = clampFleet(math.Round(est), lo+1, hi-1)
			creep++
		case hi > maxVMs: // nothing met yet: gallop up
			next, creep = lo+step, 0
		case lo < minVMs: // nothing missed yet: gallop down
			next, creep = hi-step, 0
		case est > float64(lo) && est < float64(hi) && !stalled(widths):
			next = clampFleet(math.Round(est), lo+1, hi-1)
		default:
			next = lo + (hi-lo)/2
		}
		next = min(max(next, lo+1), hi-1)
		step = min(2*step, maxVMs)
	}
	if hi <= maxVMs {
		v.Sustainable = true
		v.MinFleet = hi
	}
	return nil
}

// maxCreep is how many outward estimates search takes in a row before it
// gallops. A latency curve that reaches the target tangentially makes every
// estimate fall a little short, and the gallop bounds that creep.
const maxCreep = 4

// estimate interpolates the fleet size at which 1/QuantileValue reaches
// 1/TargetSeconds, through the two probes whose 1/QuantileValue lies
// nearest it. The reciprocal is close to linear in capacity near the
// answer, where latency grows like 1/(cμ − λ). It returns NaN with fewer
// than two usable probes; equal quantiles give ±Inf or NaN, which every
// caller treats as "no estimate".
func (v *Verdict) estimate() float64 {
	target := 1 / v.Spec.SLO.TargetSeconds
	a, b := -1, -1
	dist := func(i int) float64 { return math.Abs(1/v.Probes[i].QuantileValue - target) }
	for i := range v.Probes {
		d := dist(i)
		if math.IsNaN(d) {
			continue
		}
		switch {
		case a < 0 || d < dist(a):
			a, b = i, a
		case b < 0 || d < dist(b):
			b = i
		}
	}
	if b < 0 {
		return math.NaN()
	}
	pa, pb := v.Probes[a], v.Probes[b]
	xa, xb := 1/pa.QuantileValue, 1/pb.QuantileValue
	est := float64(pa.Fleet) + (target-xa)*float64(pb.Fleet-pa.Fleet)/(xb-xa)
	if math.IsInf(est, 0) {
		return math.NaN()
	}
	return est
}

// stalled reports whether the bracket failed to halve over the last two
// probes.
func stalled(widths []int) bool {
	n := len(widths)
	return n >= 3 && 2*widths[n-1] > widths[n-3]
}

// clampFleet converts a fleet estimate to an int in [lo, hi], clamping
// before the conversion so a huge or NaN estimate cannot overflow.
func clampFleet(f float64, lo, hi int) int {
	switch {
	case f >= float64(hi):
		return hi
	case f > float64(lo):
		return int(f)
	default: // below lo, or NaN
		return lo
	}
}

// ReplayCommand formats the one-liner that reproduces a single measured
// run from its spec file — the same UX as `schedcheck replay`.
func ReplayCommand(specPath string, seed uint64, fleet int) string {
	return "cloudsched plan replay -spec " + specPath +
		" -seed " + strconv.FormatUint(seed, 10) +
		" -fleet " + strconv.Itoa(fleet)
}

// OracleReplayCommand formats the one-liner that reproduces one
// qmodel differential case outside the test harness; the package's
// differential tests print it with every failure.
func OracleReplayCommand(rho float64, servers, vms, n, warmup int, mu float64, seed uint64, tol float64) string {
	return fmt.Sprintf("cloudsched plan oracle -rho %g -servers %d -vms %d -n %d -warmup %d -mu %g -seed %d -tol %g",
		rho, servers, vms, n, warmup, mu, seed, tol)
}
