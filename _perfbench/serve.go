package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bioschedsim/internal/service"
	"bioschedsim/internal/workload"
)

// The client and its observation of the daemon.
const (
	conns       = 2                                // client keep-alive connections
	statusPoll  = time.Millisecond                 // Service.Status poll interval: the latency resolution
	scrapeEvery = time.Second                      // GET /metrics period
	sloLimit    = 2 * service.DefaultFlushInterval // latency limit for slo_met_ratio
	drainWait   = 10 * time.Second                 // how long a phase waits for its last cloudlets
	serveDCs    = 4                                // datacenters behind the fleet, as schedd's default
	// closedRate sizes the closed-loop phase in requests per second of
	// its share of the run, about the capacity of the two connections: a
	// fixed count, so its work does not depend on the host's speed.
	closedRate = 16000
)

// serveConfig sizes the `schedd` workload. The daemon runs at schedd's
// defaults (aco, batch 64, flush 50 ms, queue 4096, 2 workers, 1 shard).
type serveConfig struct {
	vms    int
	rates  []float64 // open-loop arrival rates, requests/s
	warmup int       // requests sent and finished during set-up
}

func serveScale() serveConfig {
	return serveConfig{vms: 50, rates: []float64{500, 3000}, warmup: 1024}
}

// idHeader carries the benchmark's request number to the handler wrapper,
// so handler time joins the request's other spans.
const idHeader = "X-Perfbench-Request"

// servePlant, when set by a test, corrupts a request's outcome before the
// run is checked.
var servePlant func(reqs []request)

// request is one submission's timeline. Times are wall-clock instants;
// due is when the open-loop schedule said to send it.
type request struct {
	id         int64
	body       []byte
	due        time.Time
	dispatched time.Time // handed to a client connection
	sent       time.Time
	acked      time.Time // 202 received
	finished   time.Time // first poll that saw StateFinished
	code       int
	cloudlet   int
	state      string
	err        error
}

func (r *request) ok() bool { return r.code == http.StatusAccepted && r.state == service.StateFinished }

// handlerTimes records submit-handler spans by request number while on.
type handlerTimes struct {
	on atomic.Bool
	mu sync.Mutex
	t  map[int64][2]time.Time
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.on.Load() || r.URL.Path != "/v1/submit" {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		t1 := time.Now()
		if id, err := strconv.ParseInt(r.Header.Get(idHeader), 10, 64); err == nil {
			h.mu.Lock()
			h.t[id] = [2]time.Time{t0, t1}
			h.mu.Unlock()
		}
	})
}

func (h *handlerTimes) get(id int64) ([2]time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	v, ok := h.t[id]
	return v, ok
}

// daemon is a schedd instance serving on a loopback listener inside this
// process, and the client that talks to it.
type daemon struct {
	svc     *service.Service
	srv     *http.Server
	url     string
	client  *http.Client
	served  chan error
	handler *handlerTimes
	nextID  atomic.Int64
	acked   []int // every cloudlet id a 202 returned
	ackMu   sync.Mutex
}

func startDaemon(sc serveConfig, seed uint64) (*daemon, error) {
	fleet := workload.GenerateVMs(workload.HeterogeneousVMSpec(), sc.vms, seed)
	env, err := workload.GenerateEnvironment(workload.HeterogeneousDatacenterSpec(serveDCs), fleet, seed)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(env, service.Config{Scheduler: "aco", Seed: int64(seed)})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		svc:     svc,
		url:     "http://" + ln.Addr().String(),
		served:  make(chan error, 1),
		handler: &handlerTimes{t: map[int64][2]time.Time{}},
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		},
	}
	d.srv = &http.Server{Handler: d.handler.wrap(svc.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the daemon, shuts the server down and waits for it to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.svc.Drain(ctx)
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	d.client.CloseIdleConnections()
	return err
}

// submit posts one request's body and records its acknowledgement.
func (d *daemon) submit(r *request) {
	req, err := http.NewRequest(http.MethodPost, d.url+"/v1/submit", bytes.NewReader(r.body))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(idHeader, strconv.FormatInt(r.id, 10))
	r.sent = time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		r.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.acked, r.code = time.Now(), resp.StatusCode
	if err != nil {
		r.err = err
		return
	}
	if r.code != http.StatusAccepted {
		r.err = fmt.Errorf("submit: HTTP %d: %s", r.code, strings.TrimSpace(string(data)))
		return
	}
	var ack struct {
		IDs []int `json:"ids"`
	}
	if err := json.Unmarshal(data, &ack); err != nil || len(ack.IDs) != 1 {
		r.err = fmt.Errorf("submit: bad acknowledgement %q", data)
		return
	}
	r.cloudlet = ack.IDs[0]
	d.ackMu.Lock()
	d.acked = append(d.acked, r.cloudlet)
	d.ackMu.Unlock()
}

// scrape fetches /metrics and returns its unlabelled samples by name.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// parseProm reads Prometheus text exposition samples; labelled series are
// keyed with their labels.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histQuantile estimates a quantile of a Prometheus histogram from its
// cumulative buckets, interpolating linearly inside the bucket it falls
// in. labels selects one series, e.g. `scheduler="aco",`.
func histQuantile(samples map[string]float64, name, labels string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + "_bucket{" + labels + `le="`
	for k, v := range samples {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil || math.IsInf(le, 1) {
			continue
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(a, b int) bool { return bs[a].le < bs[b].le })
	total := samples[name+"_count{"+strings.TrimSuffix(labels, ",")+"}"]
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank && b.n > prev {
			return lo + (b.le-lo)*(rank-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return math.NaN()
}

// poller watches acknowledged cloudlets through Service.Status until each
// finishes or fails, stamping each with the first poll that sees its final
// state. Its goroutine exits once stop is closed and every added request
// is settled, or drainWait after stop, failing the rest.
type poller struct {
	svc     *service.Service
	add     chan *request
	stop    chan struct{}
	done    chan struct{}
	statusT []time.Duration // read after done
}

func startPoller(svc *service.Service) *poller {
	p := &poller{
		svc: svc,
		// Adds drain every poll; the buffer only absorbs a poll's worth
		// of acknowledgements at the highest rate, with room to spare.
		add:  make(chan *request, 1<<12),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go p.loop()
	return p
}

func (p *poller) loop() {
	defer close(p.done)
	tick := time.NewTicker(statusPoll)
	defer tick.Stop()
	var active []*request
	stop := p.stop
	var deadline time.Time
	for {
		select {
		case <-tick.C:
		case <-stop:
			stop, deadline = nil, time.Now().Add(drainWait)
		}
	drain:
		for {
			select {
			case r := <-p.add:
				active = append(active, r)
			default:
				break drain
			}
		}
		now := time.Now()
		keep := active[:0]
		for _, r := range active {
			t0 := time.Now()
			rec, ok := p.svc.Status(r.cloudlet)
			p.statusT = append(p.statusT, time.Since(t0))
			switch {
			case !ok:
				r.state, r.err = "unknown", fmt.Errorf("status: cloudlet %d unknown", r.cloudlet)
			case rec.State == service.StateFinished:
				r.state, r.finished = rec.State, now
			case rec.State == service.StateFailed:
				r.state, r.err = rec.State, fmt.Errorf("cloudlet %d failed: %s", r.cloudlet, rec.Error)
			default:
				keep = append(keep, r)
			}
		}
		active = keep
		if stop == nil && len(active) == 0 {
			return
		}
		if stop == nil && now.After(deadline) {
			for _, r := range active {
				r.err = fmt.Errorf("cloudlet %d still %s after %v", r.cloudlet, r.state, drainWait)
			}
			return
		}
	}
}

// finish tells the poller no more requests come and waits for it to exit.
func (p *poller) finish() {
	close(p.stop)
	<-p.done
}

// requests pre-draws n single-cloudlet submissions from the heterogeneous
// cloudlet spec.
func (d *daemon) requests(n int, seed uint64) []request {
	cls := workload.GenerateCloudlets(workload.HeterogeneousCloudletSpec(), n, seed)
	out := make([]request, n)
	for i, c := range cls {
		body, _ := json.Marshal(service.CloudletSpec{Length: c.Length, PEs: c.PEs, FileSize: c.FileSize, OutputSize: c.OutputSize})
		out[i] = request{id: d.nextID.Add(1), body: body}
	}
	return out
}

// dueTimes pre-draws a Poisson schedule: n send offsets at the given rate,
// the same for the same seed and rate.
func dueTimes(n int, rate float64, seed uint64) []time.Duration {
	rnd := rand.New(rand.NewSource(int64(seed*1_000_003 + uint64(rate))))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rnd.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop sends reqs on the schedule due whether or not the daemon keeps
// up: a request that finds every connection busy waits for one, and that
// wait counts in its latency.
func (d *daemon) openLoop(reqs []request, due []time.Duration) *poller {
	p := startPoller(d.svc)
	work := make(chan *request, len(reqs)) // sized to the number of sends
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				d.submit(r)
				if r.err == nil {
					p.add <- r
				}
			}
		}()
	}
	start := time.Now()
	for i := range reqs {
		r := &reqs[i]
		r.due = start.Add(due[i])
		if wait := time.Until(r.due); wait > 0 {
			time.Sleep(wait)
		}
		r.dispatched = time.Now()
		work <- r
	}
	close(work)
	wg.Wait()
	p.finish()
	return p
}

// closedLoop keeps one request in flight per connection: each connection
// sends its next request as soon as the previous one is acknowledged,
// cycling through pool, until n are sent.
func (d *daemon) closedLoop(pool []request, n int) ([]*request, *poller) {
	p := startPoller(d.svc)
	var next atomic.Int64
	sent := make([][]*request, conns)
	var wg sync.WaitGroup
	for c := range sent {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				r := &request{id: d.nextID.Add(1), body: pool[i%len(pool)].body}
				r.due = time.Now()
				r.dispatched = r.due
				d.submit(r)
				if r.err == nil {
					p.add <- r
				}
				sent[c] = append(sent[c], r)
			}
		}(c)
	}
	wg.Wait()
	p.finish()
	var all []*request
	for _, s := range sent {
		all = append(all, s...)
	}
	return all, p
}

// scraper fetches /metrics every period until stopped, timing each fetch.
type scraper struct {
	stop  chan struct{}
	done  chan struct{}
	times []time.Duration // read after done
	err   error
}

func (d *daemon) startScraper(every time.Duration) *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			if _, err := d.scrape(); err != nil {
				s.err = err
				return
			}
			s.times = append(s.times, time.Since(t0))
		}
	}()
	return s
}

func (s *scraper) finish() error {
	close(s.stop)
	<-s.done
	return s.err
}

// closedCapacity is completed cloudlets per wall second of a closed-loop
// phase: it cuts the completions, in time order, into sixteen equal runs
// and takes the median of each run's count over the time it took, so a
// stall during one run moves it little.
func closedCapacity(reqs []*request) float64 {
	var done []time.Time
	for _, r := range reqs {
		if r.ok() {
			done = append(done, r.finished)
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].Before(done[b]) })
	chunk := max(len(done)/16, 1)
	var rates []float64
	for i := 0; i+chunk < len(done); i += chunk {
		rates = append(rates, float64(chunk)/done[i+chunk].Sub(done[i]).Seconds())
	}
	return median(rates)
}

func runServe(cfg config) (*outcome, error) { return serveHTTP(cfg, serveScale()) }

// serveHTTP measures the daemon at each open-loop rate, then its
// closed-loop capacity, with a /metrics scrape every second throughout. A
// traced run also times the submit handler and splits the closed-loop phase
// into an untraced and a traced half for the tracing overhead.
func serveHTTP(cfg config, sc serveConfig) (*outcome, error) {
	out := &outcome{}
	var d *daemon
	// Set-up: start the daemon and warm it with requests sent closed-loop
	// until all finish. The last of the repeats serves the run.
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		nd, err := startDaemon(sc, cfg.seed)
		if err != nil {
			return out, err
		}
		warm, _ := nd.closedLoop(nd.requests(sc.warmup, cfg.seed+1<<32), sc.warmup)
		for _, w := range warm {
			if !w.ok() {
				nd.stop()
				return out, fmt.Errorf("warm-up request %d: %v", w.id, w.err)
			}
		}
		out.setup = append(out.setup, time.Since(t0))
		if r < setupRepeats-1 {
			if err := nd.stop(); err != nil {
				return out, err
			}
			continue
		}
		d = nd
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	// Each open-loop rate gets a quarter of the run and the closed loop
	// the remaining half; a traced run splits that half into alternating
	// untraced and traced closed loops.
	phase := cfg.seconds / 4
	closedN := int(closedRate * 2 * phase.Seconds())
	d.handler.on.Store(cfg.trace)
	runStart := time.Now()
	scr := d.startScraper(scrapeEvery)

	var open [][]request
	var statusT []time.Duration
	for k, rate := range sc.rates {
		n := int(rate * phase.Seconds())
		reqs := d.requests(n, cfg.seed+uint64(k+2)<<32)
		runtime.GC()
		p := d.openLoop(reqs, dueTimes(n, rate, cfg.seed+uint64(k)))
		statusT = append(statusT, p.statusT...)
		open = append(open, reqs)
	}
	pool := d.requests(4096, cfg.seed+uint64(len(sc.rates)+2)<<32)
	segments := 1
	if cfg.trace {
		segments = 4
	}
	var closed []*request
	caps := map[bool][]float64{} // closed-loop capacity of each segment, by traced
	for i := 0; i < segments; i++ {
		traced := i%2 == 1
		d.handler.on.Store(traced)
		runtime.GC()
		seg, p := d.closedLoop(pool, closedN/segments)
		statusT = append(statusT, p.statusT...)
		closed = append(closed, seg...)
		caps[traced] = append(caps[traced], closedCapacity(seg))
	}
	capacity := median(caps[false])
	if err := scr.finish(); err != nil {
		return out, err
	}

	// Checks: every acknowledged cloudlet finishes, and after Drain the
	// daemon's counters balance and agree with what the client saw.
	if servePlant != nil {
		for _, reqs := range open {
			servePlant(reqs)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.svc.Drain(ctx); err != nil {
		return out, err
	}
	counters, err := d.scrape()
	if err != nil {
		return out, err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return out, err
	}
	all := closed
	for _, reqs := range open {
		for i := range reqs {
			all = append(all, &reqs[i])
		}
	}
	for _, r := range all {
		out.attempted++
		if !r.ok() {
			out.failed++
		}
		if r.code == http.StatusAccepted && r.state != service.StateFinished {
			return out, fmt.Errorf("request %d: acknowledged as cloudlet %d but never finished: %v", r.id, r.cloudlet, r.err)
		}
	}
	sub, fin, failed := counters["schedd_submitted_total"], counters["schedd_finished_total"], counters["schedd_failed_total"]
	if sub != fin+failed {
		return out, fmt.Errorf("after drain: %v accepted but %v finished + %v failed", sub, fin, failed)
	}
	if int(fin) != len(d.acked) {
		return out, fmt.Errorf("/metrics counts %v finished, the client saw %d acknowledged", fin, len(d.acked))
	}
	for _, id := range d.acked {
		if rec, ok := d.svc.Status(id); !ok || rec.State != service.StateFinished {
			return out, fmt.Errorf("cloudlet %d: status %q after drain", id, rec.State)
		}
	}

	// Open-loop figures per rate.
	var sloMet, sloAll int
	var lag []float64
	for k, reqs := range open {
		tag := fmt.Sprintf(".r%g", sc.rates[k])
		var lat, ack []float64
		for i := range reqs {
			r := &reqs[i]
			sloAll++
			lag = append(lag, ms(r.dispatched.Sub(r.due)))
			if !r.ok() {
				continue
			}
			l := r.finished.Sub(r.due)
			lat = append(lat, ms(l))
			ack = append(ack, ms(r.acked.Sub(r.due)))
			if l <= sloLimit {
				sloMet++
			}
		}
		out.add("requests"+tag, float64(len(reqs)), "count")
		out.add("latency_ms_p50"+tag, quantile(lat, 0.5), "ms")
		out.add("latency_ms_p99"+tag, quantile(lat, 0.99), "ms")
		out.add("ack_ms_p99"+tag, quantile(ack, 0.99), "ms")
		if k == len(open)-1 { // the highest rate is the end-to-end op latency
			out.opMs = lat
		}
	}
	out.cloudletsPerSec = capacity
	out.add("slo_met_ratio", float64(sloMet)/float64(sloAll), "ratio")
	out.add("gen.lag_ms_p99", quantile(lag, 0.99), "ms")
	out.add("latency_resolution_ms", ms(statusPoll), "ms")
	out.add("closed_loop_requests", float64(len(closed)), "count")
	if !cfg.trace {
		return out, nil
	}

	// Per-layer figures from the open-loop phases' timelines.
	spans, layer := d.requestSpans(open, runStart)
	scrapes := durations(scr.times, ms)
	out.layers = map[string]float64{
		"service.handler_us_p50":  quantile(layer["handler"], 0.5),
		"service.handler_us_p99":  quantile(layer["handler"], 0.99),
		"service.rtt_us_p50":      quantile(layer["rtt"], 0.5),
		"service.rtt_us_p99":      quantile(layer["rtt"], 0.99),
		"service.pipeline_ms_p50": quantile(layer["pipeline"], 0.5) / 1e3,
		"service.pipeline_ms_p99": quantile(layer["pipeline"], 0.99) / 1e3,
		"service.map_ms_p50":      histQuantile(counters, "schedd_scheduling_seconds", `scheduler="aco",`, 0.5) * 1e3,
		"service.batch_fill":      fin / (counters["schedd_batches_total"] * service.DefaultBatchSize),
		"service.status_us_p50":   quantile(durations(statusT, us), 0.5),
		"service.scrape_ms_p50":   quantile(scrapes, 0.5),
		"service.rejected":        counters["schedd_rejected_total"],
		"service.failed":          failed,
		"gen.lag_ms_p99":          quantile(lag, 0.99),
		"trace.coverage_ratio":    coverage(spans),
		"trace.overhead_ratio":    sum(caps[false])/sum(caps[true]) - 1,
	}
	addSelfTimes(out, spans, float64(len(layer["rtt"])))
	return out, writeSpans(spanPath(cfg, "serve-http"), spans)
}

// requestSpans turns the open-loop requests' timelines into spans, one
// root per request from due to finished, and returns the handler, round
// trip and pipeline samples in µs.
func (d *daemon) requestSpans(open [][]request, t0 time.Time) ([]span, map[string][]float64) {
	tr := &tracer{t0: t0}
	layer := map[string][]float64{}
	for _, reqs := range open {
		for i := range reqs {
			r := &reqs[i]
			if !r.ok() {
				continue
			}
			root := tr.record("request", r.id, -1, r.due, r.finished)
			tr.record("gen.lag", r.id, root, r.due, r.dispatched)
			tr.record("client.queue", r.id, root, r.dispatched, r.sent)
			rtt := tr.record("http.rtt", r.id, root, r.sent, r.acked)
			tr.record("service.pipeline", r.id, root, r.acked, r.finished)
			layer["rtt"] = append(layer["rtt"], us(r.acked.Sub(r.sent)))
			layer["pipeline"] = append(layer["pipeline"], us(r.finished.Sub(r.acked)))
			if h, ok := d.handler.get(r.id); ok {
				tr.record("service.handler", r.id, rtt, h[0], h[1])
				layer["handler"] = append(layer["handler"], us(h[1].Sub(h[0])))
			}
		}
	}
	return tr.snapshot(), layer
}
