// Command tracebench records BENCH_trace.json: trace ingest throughput of
// the CSV text path versus the columnar binary path at several reader
// counts, on a generated synthetic trace (1M rows by default — the paper's
// homogeneous cloudlet scale). Each measurement is the best of -repeats
// runs, so one cold page cache or GC pause cannot skew the record.
//
// Usage:
//
//	go run ./cmd/tracebench -rows 1000000 -out BENCH_trace.json
//
// The record carries the same honest caveat as BENCH_parallel.json: on a
// single-core host the multi-reader curves bound pool overhead, not
// scaling — read environment.cores before quoting speedups.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bioschedsim/internal/tracecol"
	"bioschedsim/internal/workload"
)

// measurement is one (format, readers) ingest result.
type measurement struct {
	FileBytes int64   `json:"file_bytes"`
	BestS     float64 `json:"best_s"`
	RowsPerS  float64 `json:"rows_per_s"`
	MBPerS    float64 `json:"mb_per_s"`
}

func main() {
	rows := flag.Int("rows", 1_000_000, "trace rows to generate")
	out := flag.String("out", "BENCH_trace.json", "output JSON path")
	seed := flag.Uint64("seed", 42, "generator seed")
	repeats := flag.Int("repeats", 3, "runs per measurement (best is recorded)")
	flag.Parse()
	if err := run(*rows, *out, *seed, *repeats); err != nil {
		fmt.Fprintln(os.Stderr, "tracebench:", err)
		os.Exit(1)
	}
}

func run(rows int, out string, seed uint64, repeats int) error {
	dir, err := os.MkdirTemp("", "tracebench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(os.Stderr, "generating %d-row synthetic trace (seed %d)...\n", rows, seed)
	entries, err := workload.SyntheticTrace(workload.HeterogeneousCloudletSpec(), rows, 8, seed)
	if err != nil {
		return err
	}

	textPath := filepath.Join(dir, "trace.csv")
	colPath := filepath.Join(dir, "trace.col")
	flatePath := filepath.Join(dir, "trace.colz")
	if err := writeFile(textPath, func(f *os.File) error { return workload.WriteTrace(f, entries) }); err != nil {
		return err
	}
	if err := writeFile(colPath, func(f *os.File) error {
		return tracecol.Write(f, entries, tracecol.WriteOptions{})
	}); err != nil {
		return err
	}
	if err := writeFile(flatePath, func(f *os.File) error {
		return tracecol.Write(f, entries, tracecol.WriteOptions{Compression: tracecol.CompressFlate})
	}); err != nil {
		return err
	}

	results := map[string]measurement{}
	m, err := measure(textPath, rows, repeats, func() (int, error) {
		f, err := os.Open(textPath)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		got, err := workload.ReadTrace(f)
		return len(got), err
	})
	if err != nil {
		return err
	}
	results["text"] = m
	fmt.Fprintf(os.Stderr, "text: %.3fs best (%.0f rows/s, %.1f MB/s)\n", m.BestS, m.RowsPerS, m.MBPerS)

	for _, v := range []struct {
		key  string
		path string
	}{{"columnar", colPath}, {"columnar_flate", flatePath}} {
		for _, readers := range []int{1, 2, 4} {
			readers := readers
			m, err := measure(v.path, rows, repeats, func() (int, error) {
				p, err := tracecol.OpenFile(v.path)
				if err != nil {
					return 0, err
				}
				defer p.Close()
				got, err := tracecol.ReadAll(p, tracecol.ReadOptions{Readers: readers})
				return len(got), err
			})
			if err != nil {
				return err
			}
			key := fmt.Sprintf("%s_readers_%d", v.key, readers)
			results[key] = m
			fmt.Fprintf(os.Stderr, "%s: %.3fs best (%.0f rows/s, %.1f MB/s)\n", key, m.BestS, m.RowsPerS, m.MBPerS)
		}
	}

	speedup := results["text"].BestS / results["columnar_readers_1"].BestS
	rec := map[string]any{
		"description": "Trace ingest throughput: CSV text path (workload.ReadTrace with ReuseRecord + preallocation) vs the columnar binary path (internal/tracecol) at decode pools of 1/2/4 readers, on one generated synthetic trace. rows_per_s counts decoded TraceEntry values; mb_per_s is relative to each format's own file size, so the columnar file moving fewer bytes is part of the win. Results are bit-identical across formats and reader counts (round-trip + reader-invariance suites). Honest caveat per BENCH_parallel.json: on a single-core host the readers-2/4 curves bound pool overhead, not scaling — check environment.cores.",
		"date":        time.Now().Format("2006-01-02"),
		"environment": map[string]any{
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"cores":  runtime.GOMAXPROCS(0),
			"go":     runtime.Version(),
		},
		"rows":                           rows,
		"repeats":                        repeats,
		"seed":                           seed,
		"results":                        results,
		"columnar_vs_text_single_reader": fmt.Sprintf("%.2fx", speedup),
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (columnar vs text at 1 reader: %.2fx)\n", out, speedup)
	return nil
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// measure runs ingest repeats times and keeps the fastest wall time,
// verifying the decoded row count every run.
func measure(path string, wantRows, repeats int, ingest func() (int, error)) (measurement, error) {
	st, err := os.Stat(path)
	if err != nil {
		return measurement{}, err
	}
	best := 0.0
	for i := 0; i < repeats; i++ {
		start := time.Now()
		got, err := ingest()
		elapsed := time.Since(start).Seconds()
		if err != nil {
			return measurement{}, err
		}
		if got != wantRows {
			return measurement{}, fmt.Errorf("%s: decoded %d rows, want %d", path, got, wantRows)
		}
		if i == 0 || elapsed < best {
			best = elapsed
		}
	}
	return measurement{
		FileBytes: st.Size(),
		BestS:     best,
		RowsPerS:  float64(wantRows) / best,
		MBPerS:    float64(st.Size()) / 1e6 / best,
	}, nil
}
