// Command perfbench is the repository's end-to-end benchmark. It times the
// paths a user runs — the paper's Fig. 6 batch sweep, `cloudsched replay`,
// the `schedd` HTTP daemon and `cloudsched plan` — by calling each layer's
// public functions, checks that their outputs are correct, and prints one
// JSON result line:
//
//	perfbench -workload paper-het -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 the
// run records spans around every layer call and the result holds the
// per-layer metrics instead. -workload all runs every workload in its own
// child process and reports each, even when another fails. See
// WORKLOADS.md for what each workload loads and why.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 5

// runLimit bounds one workload's run so the process always exits within
// three minutes, reporting the timeout as a failure.
const runLimit = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports all
// of them; WORKLOADS.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cloudlets_per_s", "cloudlets/s"},
	{"op_ms_p50", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A workload that bypasses a
// layer reports zero for it.
var perLayer = []metricDef{
	{"workload.generate_ms", "ms"},
	{"sched.aco.schedule_ms_p50", "ms"},
	{"sched.hbo.schedule_ms_p50", "ms"},
	{"sched.rbs.schedule_ms_p50", "ms"},
	{"sched.base.schedule_ms_p50", "ms"},
	{"sched.validate_ms", "ms"},
	{"cloud.execute_ms", "ms"},
	{"cloud.engine_events", "count"},
	{"metrics.collect_ms", "ms"},
	{"tracecol.ingest_ms", "ms"},
	{"tracecol.rows_per_s", "rows/s"},
	{"online.run_ms", "ms"},
	{"online.engine_events", "count"},
	{"online.events_per_s", "events/s"},
	{"online.place_calls", "count"},
	{"online.place_us_sum", "us"},
	{"service.handler_us_p50", "us"},
	{"service.handler_us_p99", "us"},
	{"service.rtt_us_p50", "us"},
	{"service.rtt_us_p99", "us"},
	{"service.pipeline_ms_p50", "ms"},
	{"service.pipeline_ms_p99", "ms"},
	{"service.map_ms_p50", "ms"},
	{"service.batch_fill", "ratio"},
	{"service.status_us_p50", "us"},
	{"service.scrape_ms_p50", "ms"},
	{"service.rejected", "count"},
	{"service.failed", "count"},
	{"gen.lag_ms_p99", "ms"},
	{"plan.parse_ms", "ms"},
	{"plan.probes", "count"},
	{"plan.run_ms_p50", "ms"},
	{"plan.engine_events", "count"},
	{"plan.events_per_s", "events/s"},
	{"trace.coverage_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// config is what every workload receives: the seed its inputs derive from,
// how long to measure, whether to trace, and a directory for run files.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workdir string
}

// named is one line of a workload's detailed report.
type named struct {
	name  string
	value float64
	unit  string
}

// outcome is what one workload run measured. Operations are the unit its
// failures are counted in: a batch, a trace row, an HTTP request or a
// probe.
type outcome struct {
	attempted, failed int64
	setup             []time.Duration // each set-up repeat
	cloudletsPerSec   float64
	opMs              []float64 // wall time of each timed operation
	report            []named   // the workload's own metrics, printed by name
	layers            map[string]float64
}

func (o *outcome) add(name string, value float64, unit string) {
	o.report = append(o.report, named{name, value, unit})
}

type workloadFunc func(config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"paper-het":    runPaperHet,
	"replay-trace": runReplay,
	"serve-http":   runServe,
	"plan-verdict": runPlanVerdict,
}

var workloadOrder = []string{"paper-het", "replay-trace", "serve-http", "plan-verdict"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 15, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "run"), "directory for generated traces and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, workdir: *workdir}
	if *name == "all" {
		self, err := os.Executable()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return runAll(self, cfg, stdout, stderr)
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadOrder, ", "))
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	steal := hostSteal()
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: %s timed out after %v\n", *name, runLimit)
		fmt.Fprintf(stdout, "%-14s %-26s %14g %s\n", *name, "failed_ratio", 1.0, "ratio")
		os.Exit(1)
	})
	defer watchdog.Stop()
	out, err := w(cfg)
	if out != nil {
		out.add("host.steal_ratio", steal(), "ratio")
	}
	return finish(*name, cfg, out, err, stdout, stderr)
}

// finish prints a workload's report lines and result line and picks the
// exit code: 1 when the run errored or an output check failed.
func finish(name string, cfg config, out *outcome, err error, stdout, stderr io.Writer) int {
	if out == nil {
		out = &outcome{}
	}
	res := result{Correct: err == nil, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		res.Attempted = max(res.Attempted, 1)
		res.Failed = res.Attempted
	}
	for _, r := range out.report {
		fmt.Fprintf(stdout, "%-14s %-26s %14.6g %s\n", name, r.name, r.value, r.unit)
	}
	fmt.Fprintf(stdout, "%-14s %-26s %14.6g %s\n", name, "failed_ratio",
		float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	if cfg.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{out.layers[m.name], m.unit}
		}
	} else {
		rss, rerr := peakRSSMB()
		if rerr != nil && err == nil {
			err, res.Correct = rerr, false
		}
		res.Metrics["setup_s"] = metric{median(durations(out.setup, time.Duration.Seconds)), "s"}
		res.Metrics["cloudlets_per_s"] = metric{out.cloudletsPerSec, "cloudlets/s"}
		res.Metrics["op_ms_p50"] = metric{median(out.opMs), "ms"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	}
	for _, m := range sortedMetrics(res.Metrics) {
		fmt.Fprintf(stdout, "%-14s %-26s %14.6g %s\n", name, m, res.Metrics[m].Value, res.Metrics[m].Unit)
	}
	line, jerr := json.Marshal(sanitize(res))
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		return 1
	}
	return 0
}

// sanitize replaces values JSON cannot carry (NaN, ±Inf: a metric with no
// samples) by -1, which no measured metric takes.
func sanitize(r result) result {
	for k, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = -1
			r.Metrics[k] = m
		}
	}
	return r
}

func sortedMetrics(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// hostSteal samples the host's CPU time counters and returns a function
// giving the share of CPU time since then that the hypervisor gave to
// other guests (steal), for reading a run's timings; NaN where
// /proc/stat is unavailable.
func hostSteal() func() float64 {
	read := func() (steal, total float64) {
		data, err := os.ReadFile("/proc/stat")
		if err != nil {
			return math.NaN(), math.NaN()
		}
		line, _, _ := strings.Cut(string(data), "\n")
		fields := strings.Fields(line)
		for i, f := range fields[1:] {
			v, _ := strconv.ParseFloat(f, 64)
			if i < 8 { // user … steal; guest time is already in user
				total += v
			}
			if i == 7 {
				steal = v
			}
		}
		return steal, total
	}
	s0, t0 := read()
	return func() float64 {
		s1, t1 := read()
		return (s1 - s0) / (t1 - t0)
	}
}

// runAll runs every workload in a child process of its own (self, with
// -workload set), so each has its own peak RSS and a crash or timeout in
// one leaves the others to report. A failed workload reports failed_ratio 1. The last line merges
// the children's results with metric names prefixed by workload.
func runAll(self string, cfg config, stdout, stderr io.Writer) int {
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadOrder {
		res, err := runChild(self, name, cfg, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			fmt.Fprintf(stdout, "%-14s %-26s %14g %s\n", name, "failed_ratio", 1.0, "ratio")
			res = result{Attempted: 1, Failed: 1}
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[name+"/"+k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process, echoing its output, and
// returns its result line. The child is killed if it outlives the limit
// every run must meet, and waited for in every case.
func runChild(self, name string, cfg config, stdout, stderr io.Writer) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit+10*time.Second)
	defer cancel()
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds.Seconds(), 'g', -1, 64), "-trace", trace, "-workdir", cfg.workdir)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = stderr
	cmd.WaitDelay = 5 * time.Second
	runErr := cmd.Run()
	var res result
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	if jerr := json.Unmarshal([]byte(last), &res); jerr != nil || res.Metrics == nil {
		if runErr == nil {
			runErr = errors.New("no result line")
		}
		return result{}, runErr
	}
	if runErr != nil {
		res.Correct = false
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, runErr)
	}
	return res, nil
}
