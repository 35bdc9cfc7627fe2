// Command benchobj assembles BENCH_objective.json from one `go test -bench`
// log of the objective-evaluation layer: the ACO roulette micro-benchmarks
// in internal/aco and the root Objective*/MetricEq* benchmarks, one ns/op
// column per benchmark.
//
// The historical "schedulers" and "acceptance" sections of an existing
// record (-base) are preserved verbatim — they compare against the growth
// seed, which re-running today's benches cannot reproduce.
//
// Usage (see scripts/bench_objective.sh):
//
//	benchobj -log bench.log -base BENCH_objective.json -out BENCH_objective.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op`)

type environment struct {
	Goos   string `json:"goos"`
	Goarch string `json:"goarch"`
	CPU    string `json:"cpu"`
	Cores  int    `json:"cores"`
	Go     string `json:"go"`
}

// normalizeName strips the trailing -GOMAXPROCS suffix the bench runner
// appends when GOMAXPROCS != 1. The only digit-final leaves in the
// objective selection are that suffix, so a bare strip is unambiguous.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func normalizeName(name string) string {
	return gomaxprocsSuffix.ReplaceAllString(name, "")
}

// parseLog reads one bench log into name -> ns/op, folding environment
// header lines into env as they appear.
func parseLog(r io.Reader, env *environment) (map[string]float64, error) {
	out := map[string]float64{}
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
			return nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		out[normalizeName(m[1])] = ns
	}
	return out, sc.Err()
}

// record builds the benchmarks section: one ns/op entry per benchmark.
func record(results map[string]float64) map[string]any {
	out := make(map[string]any, len(results))
	for name, ns := range results {
		out[name] = map[string]any{"ns_op": ns}
	}
	return out
}

func run(logPath, basePath, outPath, desc string, now time.Time) error {
	env := environment{Cores: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	results, err := parseFile(logPath, &env)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results found in %s", logPath)
	}

	rec := map[string]any{}
	if basePath != "" {
		if buf, err := os.ReadFile(basePath); err == nil {
			var base map[string]any
			if err := json.Unmarshal(buf, &base); err != nil {
				return fmt.Errorf("base record %s: %v", basePath, err)
			}
			// Historical seed comparisons cannot be re-measured; carry
			// them forward untouched.
			for _, k := range []string{"schedulers", "acceptance"} {
				if v, ok := base[k]; ok {
					rec[k] = v
				}
			}
		}
	}
	rec["description"] = desc
	rec["date"] = now.Format("2006-01-02")
	rec["environment"] = env
	rec["benchmarks"] = record(results)

	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", outPath, len(results))
	return nil
}

func parseFile(path string, env *environment) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseLog(f, env)
}

func main() {
	logPath := flag.String("log", "", "go test -bench log to record")
	base := flag.String("base", "", "existing record whose schedulers/acceptance sections are preserved")
	out := flag.String("out", "BENCH_objective.json", "output path")
	desc := flag.String("desc", "", "description embedded in the record")
	flag.Parse()
	if *logPath == "" {
		fmt.Fprintln(os.Stderr, "benchobj: nothing to do; pass -log")
		os.Exit(2)
	}
	if err := run(*logPath, *base, *out, *desc, time.Now()); err != nil {
		fmt.Fprintln(os.Stderr, "benchobj:", err)
		os.Exit(1)
	}
}
