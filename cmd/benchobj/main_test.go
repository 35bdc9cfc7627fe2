package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const benchLog = `goos: linux
goarch: amd64
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSearchCum         	 6976000	        19.00 ns/op
BenchmarkObjectiveDense-4  	  974666	       561.6 ns/op
PASS
`

func TestParseLogReadsEnvironmentAndStripsSuffix(t *testing.T) {
	var env environment
	results, err := parseLog(strings.NewReader(benchLog), &env)
	if err != nil {
		t.Fatal(err)
	}
	if env.Goos != "linux" || env.Goarch != "amd64" || !strings.Contains(env.CPU, "Xeon") {
		t.Fatalf("environment header not parsed: %+v", env)
	}
	// GOMAXPROCS-suffixed and bare names both come out bare.
	if len(results) != 2 || results["BenchmarkSearchCum"] != 19 || results["BenchmarkObjectiveDense"] != 561.6 {
		t.Fatalf("results = %v", results)
	}
}

func TestRunWritesOneColumnAndKeepsHistory(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "bench.log")
	basePath := filepath.Join(dir, "base.json")
	outPath := filepath.Join(dir, "out.json")
	if err := os.WriteFile(logPath, []byte(benchLog), 0o644); err != nil {
		t.Fatal(err)
	}
	base := `{"schedulers": {"x": 1}, "acceptance": {"y": 2}, "kernels": {"stale": 3}}`
	if err := os.WriteFile(basePath, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(logPath, basePath, outPath, "desc", time.Date(2026, 1, 2, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(buf, &rec); err != nil {
		t.Fatal(err)
	}
	if rec["schedulers"] == nil || rec["acceptance"] == nil {
		t.Fatalf("history sections dropped: %v", rec)
	}
	if rec["kernels"] != nil {
		t.Fatal("a section other than the history ones was carried forward")
	}
	if rec["date"] != "2026-01-02" || rec["description"] != "desc" {
		t.Fatalf("header = %v, %v", rec["date"], rec["description"])
	}
	sc := rec["benchmarks"].(map[string]any)["BenchmarkSearchCum"].(map[string]any)
	if len(sc) != 1 || sc["ns_op"] != 19.0 {
		t.Fatalf("BenchmarkSearchCum entry = %v, want one ns_op column", sc)
	}
}

func TestRunRejectsEmptyLog(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "empty.log")
	if err := os.WriteFile(logPath, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(logPath, "", filepath.Join(dir, "out.json"), "", time.Now()); err == nil {
		t.Fatal("a log without benchmark lines must be an error")
	}
}
