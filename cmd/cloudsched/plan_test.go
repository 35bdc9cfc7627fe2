package main

import (
	"os"
	"strings"
	"testing"

	"bioschedsim/internal/tracecol"
)

// planSpecJSON is a small static capacity spec: λ=4, μ=1 per VM, so a
// handful of VMs meet a loose p95 target and the binary search stays fast.
const planSpecJSON = `{
  "name": "cli-static",
  "workload": {"process": "poisson", "rate": 4, "cloudlets": 800, "warmup": 100, "mean_length_mi": 1000},
  "fleet": {"vm_mips": 1000, "vm_pes": 1, "min_vms": 1, "max_vms": 8, "dispatch": "queue"},
  "slo": {"quantile": 0.95, "target_seconds": 6},
  "seed": 3
}`

const planElasticJSON = `{
  "name": "cli-elastic",
  "workload": {"process": "mmpp", "rate_a": 2, "rate_b": 10, "sojourn_a": 30, "sojourn_b": 10, "cloudlets": 600, "warmup": 50, "mean_length_mi": 1000},
  "fleet": {"vm_mips": 1000, "vm_pes": 1, "min_vms": 1, "max_vms": 12},
  "slo": {"quantile": 0.95, "target_seconds": 30},
  "seed": 5,
  "elastic": {"scale_up_load": 3, "scale_down_load": 0.5, "interval": 2}
}`

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := t.TempDir() + "/spec.json"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdPlanVerdict(t *testing.T) {
	path := writeSpec(t, planSpecJSON)
	if err := cmdPlan([]string{"-spec", path}); err != nil {
		t.Fatalf("plan verdict: %v", err)
	}
}

func TestCmdPlanElasticVerdict(t *testing.T) {
	path := writeSpec(t, planElasticJSON)
	if err := cmdPlan([]string{"-spec", path}); err != nil {
		t.Fatalf("plan elastic verdict: %v", err)
	}
}

func TestCmdPlanErrors(t *testing.T) {
	if err := cmdPlan([]string{}); err == nil {
		t.Error("missing -spec accepted")
	}
	if err := cmdPlan([]string{"-spec", "/nonexistent/spec.json"}); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeSpec(t, `{"name": "x"}`)
	if err := cmdPlan([]string{"-spec", bad}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestCmdPlanReplay(t *testing.T) {
	path := writeSpec(t, planSpecJSON)
	// The exact flag shape plan.ReplayCommand prints.
	if err := cmdPlanReplay([]string{"-spec", path, "-seed", "3", "-fleet", "6"}); err != nil {
		t.Fatalf("plan replay: %v", err)
	}
	// Defaults: spec seed, min_vms fleet.
	if err := cmdPlanReplay([]string{"-spec", path}); err != nil {
		t.Fatalf("plan replay defaults: %v", err)
	}
	if err := cmdPlanReplay([]string{}); err == nil {
		t.Error("missing -spec accepted")
	}
	if err := cmdPlanReplay([]string{"-spec", path, "-fleet", "0"}); err == nil {
		t.Error("zero fleet accepted")
	}
}

func TestCmdPlanOracle(t *testing.T) {
	// The documented ρ=0.3 M/M/1 case lands well inside its band.
	if err := cmdPlan([]string{"oracle", "-rho", "0.3", "-servers", "1", "-vms", "1",
		"-n", "20000", "-warmup", "2000", "-mu", "1", "-seed", "1", "-tol", "0.10"}); err != nil {
		t.Fatalf("plan oracle: %v", err)
	}
	// An absurdly tight band must fail with a non-zero exit (error).
	err := cmdPlan([]string{"oracle", "-rho", "0.3", "-n", "4000", "-warmup", "400", "-tol", "0.00001"})
	if err == nil {
		t.Fatal("impossible band passed")
	}
	if !strings.Contains(err.Error(), "FAILED") {
		t.Fatalf("failure not attributed to the differential: %v", err)
	}
	if err := cmdPlan([]string{"oracle", "-rho", "1.5"}); err == nil {
		t.Error("unstable rho accepted")
	}
}

func TestGenTraceProcesses(t *testing.T) {
	dir := t.TempDir()
	for _, proc := range []string{"mmpp", "diurnal"} {
		path := dir + "/" + proc + ".csv"
		args := []string{"-n", "200", "-process", proc, "-out", path}
		if proc == "diurnal" {
			args = append(args, "-rate", "6", "-amplitude", "0.8", "-period", "120")
		}
		if err := cmdGenTrace(args); err != nil {
			t.Fatalf("gentrace -process %s: %v", proc, err)
		}
		entries, err := tracecol.ReadFileAuto(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 200 {
			t.Fatalf("%s: %d entries, want 200", proc, len(entries))
		}
		for i := 1; i < len(entries); i++ {
			if entries[i].Arrival < entries[i-1].Arrival {
				t.Fatalf("%s: arrivals out of order at %d", proc, i)
			}
		}
	}
	if err := cmdGenTrace([]string{"-n", "10", "-process", "bogus"}); err == nil {
		t.Error("bogus process accepted")
	}
	if err := cmdGenTrace([]string{"-n", "10", "-process", "diurnal", "-amplitude", "1.5"}); err == nil {
		t.Error("out-of-range amplitude accepted")
	}
}
