package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"bioschedsim/internal/sched"
	"bioschedsim/internal/tracecol"
)

func TestDefaultScale(t *testing.T) {
	cases := map[string]float64{
		"fig4a": 0.002, "fig4b": 0.002, "fig5a": 0.002, "fig5b": 0.002,
		"fig6a": 0.1, "fig6d": 0.1, "abl-aco-iters": 0.1,
	}
	for id, want := range cases {
		if got := defaultScale(id); got != want {
			t.Errorf("defaultScale(%s): got %v want %v", id, got, want)
		}
	}
}

func TestRunScenario(t *testing.T) {
	scheduler, err := sched.New("base")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runScenario(scheduler, "heterogeneous", 8, 40, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cloudlets != 40 || rep.VMs != 8 || rep.SimTime <= 0 {
		t.Fatalf("report: %+v", rep)
	}
	rep, err = runScenario(scheduler, "homogeneous", 4, 20, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cloudlets != 20 {
		t.Fatalf("homogeneous report: %+v", rep)
	}
	if _, err := runScenario(scheduler, "bogus", 4, 20, 1, 5); err == nil {
		t.Fatal("bogus scenario accepted")
	}
}

func TestCmdParamsTopics(t *testing.T) {
	for _, topic := range []string{"aco", "hbo", "rbs", "homogeneous", "heterogeneous"} {
		if err := cmdParams([]string{topic}); err != nil {
			t.Errorf("params %s: %v", topic, err)
		}
	}
	if err := cmdParams([]string{"bogus"}); err == nil {
		t.Error("bogus topic accepted")
	}
	if err := cmdParams(nil); err == nil {
		t.Error("missing topic accepted")
	}
}

func TestCmdFigureErrors(t *testing.T) {
	if err := cmdFigure([]string{}); err == nil {
		t.Error("missing id accepted")
	}
	if err := cmdFigure([]string{"not-an-experiment"}); err == nil {
		t.Error("unknown id accepted")
	}
	if err := cmdFigure([]string{"fig6a", "extra"}); err == nil {
		t.Error("two positional args accepted")
	}
}

func TestCmdRunUnknownScheduler(t *testing.T) {
	if err := cmdRun([]string{"-algs", "nope", "-vms", "2", "-cloudlets", "4"}); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if !strings.Contains(sched.Names()[0], "") {
		t.Skip()
	}
}

func TestCmdList(t *testing.T) {
	if err := cmdList(); err != nil {
		t.Fatal(err)
	}
}

func TestOnlinePolicyNames(t *testing.T) {
	for _, name := range []string{"online-rr", "online-least", "online-eft", "online-aco", "online-hbo", "online-rbs", "online-2choice"} {
		p, err := onlinePolicy(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("policy name mismatch: %s vs %s", p.Name(), name)
		}
	}
	if _, err := onlinePolicy("bogus", 1); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestCmdReplayErrors(t *testing.T) {
	if err := cmdReplay([]string{}); err == nil {
		t.Fatal("missing -trace accepted")
	}
	if err := cmdReplay([]string{"-trace", "/nonexistent/file.csv"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestGenTraceAndReplayRoundTrip(t *testing.T) {
	path := t.TempDir() + "/trace.csv"
	if err := cmdGenTrace([]string{"-n", "40", "-rate", "8", "-out", path, "-deadline-slack", "4", "-vms", "10"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdReplay([]string{"-trace", path, "-policy", "online-least", "-vms", "10", "-dcs", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdCompareErrors(t *testing.T) {
	if err := cmdCompare([]string{}); err == nil {
		t.Fatal("missing id accepted")
	}
	if err := cmdCompare([]string{"not-an-experiment"}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestCmdTraceConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	csvPath := dir + "/t.csv"
	colPath := dir + "/t.col"
	backPath := dir + "/t2.csv"
	if err := cmdGenTrace([]string{"-n", "300", "-rate", "6", "-deadline-slack", "4", "-vms", "10", "-out", csvPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrace([]string{"convert", "-in", csvPath, "-out", colPath, "-block-rows", "64", "-compress"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrace([]string{"convert", "-in", colPath, "-out", backPath}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(backPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("csv -> columnar -> csv changed the canonical bytes")
	}
	// Both formats replay identically through the sniffing loader.
	fromCSV, err := tracecol.ReadFileAuto(csvPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	fromCol, err := tracecol.ReadFileAuto(colPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCSV) != 300 || len(fromCol) != 300 {
		t.Fatalf("loaded %d and %d entries, want 300", len(fromCSV), len(fromCol))
	}
	for i := range fromCSV {
		if fromCSV[i].Cloudlet.ID != fromCol[i].Cloudlet.ID ||
			fromCSV[i].Arrival != fromCol[i].Arrival ||
			fromCSV[i].Cloudlet.Deadline != fromCol[i].Cloudlet.Deadline {
			t.Fatalf("entry %d differs between formats", i)
		}
	}
}

func TestCmdTraceErrors(t *testing.T) {
	if err := cmdTrace(nil); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := cmdTrace([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := cmdTrace([]string{"convert"}); err == nil {
		t.Error("convert without -in/-out accepted")
	}
	if err := cmdTrace([]string{"convert", "-in", "/nonexistent", "-out", "/tmp/x"}); err == nil {
		t.Error("missing input accepted")
	}
}

func TestCmdGenTraceColumnar(t *testing.T) {
	dir := t.TempDir()
	colPath := dir + "/gen.col"
	if err := cmdGenTrace([]string{"-n", "100", "-columnar", "-compress", "-out", colPath}); err != nil {
		t.Fatal(err)
	}
	entries, err := tracecol.ReadFileAuto(colPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 100 {
		t.Fatalf("generated %d entries, want 100", len(entries))
	}
	if err := cmdGenTrace([]string{"-n", "10", "-columnar"}); err == nil {
		t.Error("-columnar without -out accepted")
	}
}

// TestCmdNegativeCountsAreErrors: a negative count on the command line is
// an error from the workload generators, not a makeslice panic.
func TestCmdNegativeCountsAreErrors(t *testing.T) {
	trace := t.TempDir() + "/trace.csv"
	if err := cmdGenTrace([]string{"-n", "4", "-out", trace}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cmd  func([]string) error
		args []string
	}{
		{cmdRun, []string{"-vms", "-2"}},
		{cmdRun, []string{"-cloudlets", "-2"}},
		{cmdRun, []string{"-scenario", "homogeneous", "-vms", "-2"}},
		{cmdGenTrace, []string{"-n", "-3"}},
		{cmdGenTrace, []string{"-n", "4", "-deadline-slack", "2", "-vms", "-2"}},
		{cmdReplay, []string{"-trace", trace, "-vms", "-2"}},
	} {
		if err := tc.cmd(tc.args); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("%v: got %v, want a negative-count error", tc.args, err)
		}
	}
}
