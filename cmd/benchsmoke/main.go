// Command benchsmoke gates `go test -bench -cpu` output of the scaling
// benchmarks (bench_parallel_test.go) on the serial-vs-parallel
// comparison; `verify.sh bench-smoke` runs it.
//
// Usage:
//
//	go test . -run '^$' -bench 'ParallelFig5a|ParallelFig6b' -cpu 1,2,4,8 -benchtime 200ms -count 3 | benchsmoke
//
// Every pool's width is GOMAXPROCS, so a family's curve is its runs across
// the -cpu list. The gate fails when any family's best parallel run
// (minimum ns/op over GOMAXPROCS > 1) is more than -max-slowdown times its
// GOMAXPROCS=1 run — a real serialization bug slows every width, while one
// noisy sample cannot trip the smoke. Under -count, each width's fastest
// repeat stands for it, so one stalled sample cannot decide it either.
// Only large configs are gated: families whose serial run is under
// -min-serial-ns are micro-scale and noise-dominated at smoke benchtimes,
// so they are reported but not judged. On a
// single-core host a parallel pool cannot beat serial, so the gate only
// bounds overhead there and says so; on multicore it doubles as a scaling
// regression tripwire.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkParallelFig5a/aco-4   529   98729 ns/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op`)

// result is one parsed benchmark line.
type result struct {
	Name    string // as printed, with any -GOMAXPROCS suffix
	NsPerOp float64
}

// environment is the host the verdict was reached on: the header lines of
// the bench output plus the core count, which decides whether the gate
// bounds scaling or only pool overhead.
type environment struct {
	Goos, Goarch, CPU string
	Cores             int
}

// curve is the GOMAXPROCS sweep of one benchmark family
// (e.g. BenchmarkParallelFig5a/aco).
type curve struct {
	Family  string
	NsPerOp map[int]float64 // GOMAXPROCS -> ns/op
}

// parseBench reads `go test -bench` output, returning its results and
// whatever environment header lines were present.
func parseBench(r io.Reader) ([]result, environment, error) {
	env := environment{Cores: runtime.GOMAXPROCS(0)}
	var out []result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			env.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			env.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			env.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, env, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		out = append(out, result{Name: m[1], NsPerOp: ns})
	}
	return out, env, sc.Err()
}

// cpuSuffix is the "-N" the bench runner appends to every name when
// GOMAXPROCS is N != 1; a name without it ran at GOMAXPROCS 1. The sweep
// benches' leaves are algorithm names, so the suffix is never ambiguous.
var cpuSuffix = regexp.MustCompile(`^(.+)-(\d+)$`)

// splitRun splits a bench name into its family and the GOMAXPROCS width it
// ran at.
func splitRun(name string) (family string, width int) {
	if m := cpuSuffix.FindStringSubmatch(name); m != nil {
		if w, err := strconv.Atoi(m[2]); err == nil {
			return m[1], w
		}
	}
	return name, 1
}

// buildCurves groups results into per-family sweeps, sorted by family name
// for stable output. A family seen at one width only is not a sweep and is
// dropped. Repeated samples of one (family, width) — go test prints one
// line per -count — keep their minimum ns/op, on the serial side as on the
// parallel one: a stall only ever slows a sample, so the fastest repeat is
// the one noise touched least.
func buildCurves(results []result) []curve {
	byFamily := map[string]map[int]float64{}
	for _, r := range results {
		family, w := splitRun(r.Name)
		if byFamily[family] == nil {
			byFamily[family] = map[int]float64{}
		}
		if ns, seen := byFamily[family][w]; !seen || r.NsPerOp < ns {
			byFamily[family][w] = r.NsPerOp
		}
	}
	families := make([]string, 0, len(byFamily))
	for f, c := range byFamily {
		if len(c) > 1 {
			families = append(families, f)
		}
	}
	sort.Strings(families)
	out := make([]curve, 0, len(families))
	for _, f := range families {
		out = append(out, curve{Family: f, NsPerOp: byFamily[f]})
	}
	return out
}

// gate compares each family's best parallel run (minimum ns/op over all
// GOMAXPROCS > 1) against its GOMAXPROCS=1 run. A genuine serialization
// regression slows every pool width, so the best-width comparison keeps
// full detection power while a single noisy sample at one width — routine
// at smoke benchtimes on micro-scale benches — cannot fail the gate. It
// returns one violation string per family whose best parallel run exceeds
// maxSlowdown x serial, and a note when the comparison is vacuous
// (single-core host, so only overhead is bounded). Families whose serial
// run is under minSerialNs are skipped — the per-op time is too small for
// a smoke benchtime to separate real regressions from timer noise — and
// counted in skipped.
func gate(curves []curve, maxSlowdown float64, cores int, minSerialNs float64) (violations []string, note string, skipped int) {
	if cores == 1 {
		note = "GOMAXPROCS=1: parallel pools cannot beat serial here; gating only bounds pool overhead"
	}
	for _, c := range curves {
		serial, ok := c.NsPerOp[1]
		if !ok || serial <= 0 {
			violations = append(violations, fmt.Sprintf("%s: no serial (-cpu 1) baseline in input", c.Family))
			continue
		}
		if serial < minSerialNs {
			skipped++
			continue
		}
		bestW, bestNs := 0, 0.0
		for w, ns := range c.NsPerOp {
			if w > 1 && (bestW == 0 || ns < bestNs) {
				bestW, bestNs = w, ns
			}
		}
		if bestW == 0 {
			continue
		}
		if ratio := bestNs / serial; ratio > maxSlowdown {
			violations = append(violations,
				fmt.Sprintf("%s: every parallel width is slower than serial; best is GOMAXPROCS=%d at %.2fx (%.0f vs %.0f ns/op, limit %.2fx)",
					c.Family, bestW, ratio, bestNs, serial, maxSlowdown))
		}
	}
	return violations, note, skipped
}

func run(in io.Reader, out io.Writer, maxSlowdown, minSerialNs float64) error {
	results, env, err := parseBench(in)
	if err != nil {
		return err
	}
	curves := buildCurves(results)
	if len(curves) == 0 {
		return fmt.Errorf("no benchmark family found at two or more -cpu widths in input")
	}
	fmt.Fprintf(out, "host: %s/%s %s, GOMAXPROCS=%d\n", env.Goos, env.Goarch, env.CPU, env.Cores)
	violations, note, skipped := gate(curves, maxSlowdown, env.Cores, minSerialNs)
	if note != "" {
		fmt.Fprintf(out, "note: %s\n", note)
	}
	if skipped > 0 {
		fmt.Fprintf(out, "note: %d micro-scale families below %.0f ns/op serial not gated (noise-dominated at smoke benchtimes)\n", skipped, minSerialNs)
	}
	for _, v := range violations {
		fmt.Fprintf(out, "FAIL %s\n", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d scaling violation(s)", len(violations))
	}
	fmt.Fprintf(out, "ok: %d families gated within %.2fx serial (%d skipped)\n", len(curves)-skipped, maxSlowdown, skipped)
	return nil
}

func main() {
	maxSlowdown := flag.Float64("max-slowdown", 1.10, "fail when a family's best parallel ns/op exceeds this multiple of its serial run")
	minSerialNs := flag.Float64("min-serial-ns", 1e6, "only gate families whose serial run is at least this many ns/op (smaller ones are noise-dominated smoke samples)")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *maxSlowdown, *minSerialNs); err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke:", err)
		os.Exit(1)
	}
}
