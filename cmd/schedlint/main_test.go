package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bioschedsim/internal/lint"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestJSONCleanTree proves the machine report is stable on success: exit
// 0, and -sarif (the report CI uploads on every run) serializes one run
// with [] results, never null.
func TestJSONCleanTree(t *testing.T) {
	t.Run("-sarif", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-C", "../..", "-sarif", "./internal/lint"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit code = %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
		}
		var log struct {
			Runs []struct {
				Results []json.RawMessage `json:"results"`
			} `json:"runs"`
		}
		if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
			t.Fatalf("bad SARIF: %v", err)
		}
		if len(log.Runs) != 1 || log.Runs[0].Results == nil || len(log.Runs[0].Results) != 0 {
			t.Errorf("clean tree must serialize one run with [] results, got %s", stdout.String())
		}
		if !strings.Contains(stdout.String(), `"results": []`) {
			t.Errorf("results must be [] (not null) on a clean tree, got %s", stdout.String())
		}
	})
}

// TestTextOutput checks the human format and the findings exit code.
func TestTextOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", filepath.Join("testdata", "jsonfix"), "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	out := stdout.String()
	if !strings.Contains(out, "internal/sched/fixture.go:9:9:") || !strings.Contains(out, "(detrand)") {
		t.Errorf("text output missing file:line:col or rule tag:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "2 finding(s)") {
		t.Errorf("stderr summary missing: %q", stderr.String())
	}
}

// TestRulesFlag restricts the run to one rule: detrand is excluded and the
// suppressed sentinel stays suppressed, so exactly the one unsuppressed
// floateq finding remains.
func TestRulesFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", filepath.Join("testdata", "jsonfix"), "-rules", "floateq", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	out := stdout.String()
	if strings.Contains(out, "detrand") {
		t.Errorf("-rules floateq must not run detrand:\n%s", out)
	}
	if strings.Count(out, "(floateq)") != 1 {
		t.Errorf("want exactly one floateq finding (the sentinel is suppressed):\n%s", out)
	}
}

// TestSARIFGolden pins the -sarif output byte-for-byte and validates the
// invariants GitHub code scanning depends on: schema URI, version 2.1.0, a
// rule catalog every result's ruleIndex resolves into, and SRCROOT-based
// module-relative file URIs.
func TestSARIFGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", filepath.Join("testdata", "jsonfix"), "-sarif", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings present); stderr: %s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "golden.sarif")
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("-sarif output drifted from golden file\n got:\n%s\nwant:\n%s", stdout.String(), want)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name            string `json:"name"`
					SemanticVersion string `json:"semanticVersion"`
					Rules           []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(want, &log); err != nil {
		t.Fatalf("golden SARIF is not valid JSON: %v", err)
	}
	if !strings.Contains(log.Schema, "sarif-2.1.0") || log.Version != "2.1.0" {
		t.Errorf("bad $schema/version: %q / %q", log.Schema, log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want exactly one run, got %d", len(log.Runs))
	}
	drv := log.Runs[0].Tool.Driver
	if drv.Name != "schedlint" || drv.SemanticVersion != lint.SchemaVersion {
		t.Errorf("driver = %s/%s, want schedlint/%s", drv.Name, drv.SemanticVersion, lint.SchemaVersion)
	}
	// Catalog covers every registered rule plus the "ignore" pseudo-rule.
	if want := len(lint.Rules()) + 1; len(drv.Rules) != want {
		t.Errorf("rule catalog has %d entries, want %d", len(drv.Rules), want)
	}
	if len(log.Runs[0].Results) != 2 {
		t.Fatalf("want 2 results, got %d", len(log.Runs[0].Results))
	}
	for _, r := range log.Runs[0].Results {
		if r.RuleIndex < 0 || r.RuleIndex >= len(drv.Rules) || drv.Rules[r.RuleIndex].ID != r.RuleID {
			t.Errorf("result ruleIndex %d does not resolve to ruleId %s", r.RuleIndex, r.RuleID)
		}
		if r.Level != "error" || r.Message.Text == "" {
			t.Errorf("result missing level/message: %+v", r)
		}
		for _, loc := range r.Locations {
			pl := loc.PhysicalLocation
			if pl.ArtifactLocation.URIBaseID != "SRCROOT" || strings.HasPrefix(pl.ArtifactLocation.URI, "/") {
				t.Errorf("URIs must be SRCROOT-relative, got %+v", pl.ArtifactLocation)
			}
			if pl.Region.StartLine == 0 || pl.Region.StartColumn == 0 {
				t.Errorf("region missing line/col: %+v", pl.Region)
			}
		}
	}
}

// TestUnresolvableImportExitCode: an import that is neither in the module
// nor in the standard library fails the load (exit 2, naming the package),
// even when it sits behind a module-internal import the pattern does not
// name, rather than degrading to an empty package the rules cannot see into.
func TestUnresolvableImportExitCode(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":                  "module seeded.example/repo\n\ngo 1.22\n",
		"internal/sched/sched.go": "package sched\n\nimport \"seeded.example/repo/internal/util\"\n\nvar X = util.Y\n",
		"internal/util/util.go":   "package util\n\nimport \"no/such/pkg\"\n\nvar Y = pkg.Z\n",
	} {
		file := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./internal/sched"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), `"no/such/pkg"`) {
		t.Errorf("stderr should name the unresolvable package: %q", stderr.String())
	}
}

func TestUnknownRuleExitCode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rules", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2 for unknown rule", code)
	}
	if !strings.Contains(stderr.String(), "unknown rule") {
		t.Errorf("stderr should name the unknown rule: %q", stderr.String())
	}
}

func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, rule := range []string{"detrand", "simclock", "floateq", "noprint"} {
		if !strings.Contains(stdout.String(), rule) {
			t.Errorf("-list output missing rule %s:\n%s", rule, stdout.String())
		}
	}
}
