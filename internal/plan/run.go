package plan

import (
	"fmt"
	"math"
	"slices"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/elastic"
	"bioschedsim/internal/sim"
	"bioschedsim/internal/workload"
	"bioschedsim/internal/xrand"
)

// RunOptions are injection points for the qmodel differential's plant
// tests; zero values mean "use the spec".
type RunOptions struct {
	// Process overrides the spec's arrival process (the biased-generator
	// plant swaps one in here).
	Process workload.ArrivalProcess
	// Recorder overrides the default LatencyStats (the dropping-recorder
	// plant swaps one in here).
	Recorder Recorder
}

// RunResult is one measured run at a fixed (or autoscaled) fleet size.
type RunResult struct {
	Fleet     int // fleet size at start
	PeakFleet int // max fleet size reached (== Fleet unless elastic)

	Recorder Recorder // post-warmup wait/latency samples

	ScaleUps, ScaleDowns int // autoscaler decisions (elastic only)

	// EngineEvents is the number of DES events the run fires, for
	// throughput benches. A static queue run fires none; it reports the 2n
	// (n arrivals, n completions) the DES would fire for it.
	EngineEvents uint64
}

// SLOValue returns the latency at the spec's SLO quantile.
func (r *RunResult) SLOValue(spec *Spec) float64 {
	return r.Recorder.Quantile(spec.SLO.Quantile)
}

// SLOMet reports whether the run met the spec's SLO. An empty recorder
// yields NaN, which never meets a target.
func (r *RunResult) SLOMet(spec *Spec) bool {
	return r.SLOValue(spec) <= spec.SLO.TargetSeconds
}

// Run executes the spec's workload against a fleet of the given size and
// returns the measured result. The run is a pure function of
// (spec, fleet, opts): arrivals come from the spec's process (stream
// seed/5, 8, or 9 by kind), service demands are exponential with mean
// MeanLengthMI (stream (seed, 6)) — same spec, same seed, same verdict.
// It draws the workload, then measures it on the fleet (draws.run); a
// Plan verdict draws once and measures every probe the same way, so each
// probe equals Run at its fleet. A static queue spec is FCFS over
// fleet × VMPes identical servers, which serveQueue computes without an
// event list; spread and elastic specs, with their per-VM queues and
// autoscaler ticks, run on the DES kernel.
func Run(spec *Spec, fleet int, opts *RunOptions) (*RunResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if fleet < 1 {
		return nil, fmt.Errorf("plan: fleet size must be at least 1, got %d", fleet)
	}
	proc, err := opts.arrivals(spec)
	if err != nil {
		return nil, err
	}
	w, err := draw(spec, proc)
	if err != nil {
		return nil, err
	}
	return w.run(spec, fleet, opts.recorder())
}

// arrivals returns the arrival process override, or the spec's own.
func (o *RunOptions) arrivals(spec *Spec) (workload.ArrivalProcess, error) {
	if o != nil && o.Process != nil {
		return o.Process, nil
	}
	return spec.Workload.Arrivals()
}

// recorder returns the recorder override, or a fresh LatencyStats.
func (o *RunOptions) recorder() Recorder {
	if o == nil || o.Recorder == nil {
		return NewLatencyStats()
	}
	return o.Recorder
}

// draws is a run's drawn workload, read-only once drawn: arrival offsets
// (finite and non-negative, not necessarily sorted), the stable order the
// DES fires them in, and service demands.
type draws struct {
	offsets, lengths []float64
	order            sim.ArrivalOrder
}

// draw draws the spec's workload, its arrivals from proc.
func draw(spec *Spec, proc workload.ArrivalProcess) (*draws, error) {
	n := spec.Workload.Cloudlets
	offsets, err := proc.Offsets(n, spec.Seed)
	if err != nil {
		return nil, err
	}
	if len(offsets) != n {
		return nil, fmt.Errorf("plan: arrival process %s drew %d offsets, want %d", proc.Name(), len(offsets), n)
	}
	for i, t := range offsets {
		if !(t >= 0) || math.IsInf(t, 1) {
			return nil, fmt.Errorf("plan: arrival offset %d is %v, want finite and non-negative", i, t)
		}
	}

	// Service demands: exponential length with mean MeanLengthMI, clamped
	// to the engine's positive-length floor. Stream (seed, 6) is reserved
	// for service draws so arrival and service randomness never correlate.
	lengths := make([]float64, n)
	r := xrand.New(spec.Seed, 6)
	for i := range lengths {
		lengths[i] = max(r.ExpFloat64()*spec.Workload.MeanLengthMI, 1e-6)
	}
	return &draws{offsets: offsets, lengths: lengths, order: sim.OrderArrivals(offsets)}, nil
}

// run measures the drawn workload on a fleet of the given size (at least 1),
// recording into rec, which must be empty. It only reads w, so one draw
// serves any number of runs.
func (w *draws) run(spec *Spec, fleet int, rec Recorder) (*RunResult, error) {
	if spec.DispatchMode() == DispatchQueue {
		n := len(w.offsets)
		servers := min(fleet, n) * min(spec.Fleet.VMPes, n) // servers past the n-th stay idle
		w.serveQueue(min(servers, n), spec.Fleet.VMMips, spec.Workload.Warmup, rec)
		return &RunResult{Fleet: fleet, PeakFleet: fleet, Recorder: rec, EngineEvents: 2 * uint64(n)}, nil
	}
	return simulate(spec, fleet, w, rec, func(b *cloud.Broker) (dispatcher, error) { return spread{b}, nil })
}

// serveQueue serves the cloudlets first-come-first-served on slots
// identical servers of mips MIPS by the Kiefer–Wolfowitz recursion, and
// records each one past warmup. Arrivals are taken in w.order, the stable
// offset order the DES fires them in. A min-heap holds each server's
// cloudlet, keyed by (finish, serve position) and seeded with idle servers
// at −Inf. Each arrival replaces the heap's top, whose cloudlet completes,
// and starts at max(offset, that finish). The DES fires completions in
// (finish, dispatch order), and strict FIFO dispatches in serve order.
// Each entry pushed sorts after the one it replaces (no earlier finish, a
// later position), so the pops, and the recorder's samples, come in the
// DES's order. The heap is the only state it writes besides rec.
func (w *draws) serveQueue(slots int, mips float64, warmup int, rec Recorder) {
	offsets, lengths, order := w.offsets, w.lengths, w.order
	h := make(serverHeap, slots)
	for i := range h {
		h[i] = running{finish: math.Inf(-1), pos: -1}
	}
	observeTop := func() {
		if top := h[0]; top.pos >= 0 && order.Index(top.pos) >= warmup {
			arrival := offsets[order.Index(top.pos)]
			rec.Observe(top.start-arrival, top.finish-arrival)
		}
	}
	for pos := range offsets {
		job := order.Index(pos)
		observeTop()
		start := max(offsets[job], h[0].finish)
		h[0] = running{start + lengths[job]/mips, start, pos}
		h.down()
	}
	for len(h) > 0 {
		observeTop()
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		h.down()
	}
}

// running is one cloudlet on a server: when it starts and finishes, and
// its position in serve order (−1 for an idle server).
type running struct {
	finish, start float64
	pos           int
}

// serverHeap is a binary min-heap of running entries ordered by finish,
// then serve position.
type serverHeap []running

// down sifts the root into place.
func (h serverHeap) down() {
	if len(h) == 0 {
		return
	}
	before := func(a, b running) bool { return a.finish < b.finish || (!(b.finish < a.finish) && a.pos < b.pos) }
	i, e := 0, h[0]
	for c := 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && before(h[c+1], h[c]) {
			c++
		}
		if !before(h[c], e) {
			break
		}
		h[i], i = h[c], c
	}
	h[i] = e
}

// dispatcher places arrivals on the fleet during a DES run. released hears
// of each completion after its PEs are free and before it is recorded.
type dispatcher interface {
	arrive(c *cloud.Cloudlet)
	released(c *cloud.Cloudlet)
}

// spread submits each arrival to the live VM with the fewest resident
// cloudlets (lowest ID on ties) — per-VM queues, the shape the autoscaler
// monitors.
type spread struct{ broker *cloud.Broker }

func (s spread) arrive(c *cloud.Cloudlet) {
	var best *cloud.VM
	bestLoad := 0
	for _, vm := range s.broker.Environment().VMs {
		if vm.Scheduler() == nil {
			continue // still booting
		}
		load := vm.QueuedOrRunning()
		if best == nil || load < bestLoad || (load == bestLoad && vm.ID < best.ID) {
			best, bestLoad = vm, load
		}
	}
	if best != nil {
		s.broker.Submit(c, best)
	}
}

func (spread) released(*cloud.Cloudlet) {}

// simulate runs the drawn workload through the DES kernel on single-VM hosts
// (MaxVMs of them for elastic headroom) with space-shared VMs, placed by
// the dispatcher newDispatcher builds on the broker, and under the spec's
// autoscaler when it has one.
func simulate(spec *Spec, fleet int, w *draws, rec Recorder, newDispatcher func(*cloud.Broker) (dispatcher, error)) (*RunResult, error) {
	offsets := w.offsets
	slots := fleet
	if spec.Elastic != nil {
		slots = max(fleet, spec.Fleet.MaxVMs)
	}
	hosts := make([]*cloud.Host, slots)
	env := &cloud.Environment{}
	for i := range hosts {
		hosts[i] = cloud.NewHost(i, cloud.NewPEs(spec.Fleet.VMPes, spec.Fleet.VMMips), 1<<16, 1<<20, 1<<30)
	}
	env.Datacenters = []*cloud.Datacenter{cloud.NewDatacenter(0, "plan", cloud.Characteristics{}, hosts)}
	for i := 0; i < fleet; i++ {
		vm := cloud.NewVM(i, spec.Fleet.VMMips, spec.Fleet.VMPes, 512, 500, 5000)
		if err := hosts[i].Place(vm); err != nil {
			return nil, err
		}
		env.VMs = append(env.VMs, vm)
	}
	eng := sim.NewEngine()
	broker := cloud.NewBroker(eng, env, cloud.SpaceSharedFactory)
	d, err := newDispatcher(broker)
	if err != nil {
		return nil, err
	}

	n := len(offsets)
	cloudlets := make([]*cloud.Cloudlet, n)
	for i := range cloudlets {
		cloudlets[i] = cloud.NewCloudlet(i, w.lengths[i], 1, 0, 0)
	}
	// Latency is measured against the arrival offset, not SubmitTime: a
	// dispatcher may hold a cloudlet back, and its queueing delay then
	// lives between arrival and submission.
	warmup := spec.Workload.Warmup
	broker.OnFinish(func(c *cloud.Cloudlet) {
		d.released(c)
		if c.ID >= warmup {
			arrival := offsets[c.ID]
			rec.Observe(float64(c.StartTime)-arrival, float64(c.FinishTime)-arrival)
		}
	})

	var scaler *elastic.Autoscaler
	if e := spec.Elastic; e != nil {
		pol := elastic.Policy{
			ScaleUpLoad:   e.ScaleUpLoad,
			ScaleDownLoad: e.ScaleDownLoad,
			Interval:      sim.Time(e.Interval),
			MinVMs:        spec.Fleet.MinVMs,
			MaxVMs:        spec.Fleet.MaxVMs,
			Template: elastic.VMTemplate{
				MIPS: spec.Fleet.VMMips, PEs: spec.Fleet.VMPes,
				RAM: 512, Bw: 500, Size: 5000,
			},
			BootDelay: sim.Time(e.BootDelay),
			// Arrivals are open, not a batch: monitoring must survive idle
			// instants between them or one drained moment ends autoscaling
			// for the rest of the run.
			MonitorUntil: sim.Time(slices.Max(offsets)),
		}
		if scaler, err = elastic.New(broker, pol, cloud.SpaceSharedFactory, fleet); err != nil {
			return nil, err
		}
		scaler.Start()
	}

	var c *cloud.Cloudlet
	arrive := func() { d.arrive(c) }
	for p := range offsets {
		i := w.order.Index(p)
		c = cloudlets[i]
		eng.FireAt(offsets[i], sim.PriorityAcquire, arrive)
	}
	eng.Run()

	if got := len(broker.Finished()); got != n {
		return nil, fmt.Errorf("plan: %d of %d cloudlets unfinished after run", n-got, n)
	}

	res := &RunResult{Fleet: fleet, PeakFleet: fleet, Recorder: rec, EngineEvents: eng.Fired()}
	if scaler != nil {
		size := fleet
		for _, ev := range scaler.Events() {
			switch ev.Act {
			case elastic.ScaleUp:
				res.ScaleUps++
				size++
			case elastic.ScaleDown:
				res.ScaleDowns++
				size--
			}
			if size > res.PeakFleet {
				res.PeakFleet = size
			}
		}
	}
	return res, nil
}
