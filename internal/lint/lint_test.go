package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// fixtureCase drives one golden-source module under testdata/src. want maps
// "file:line" (module-relative) to the rules expected to fire there, in the
// engine's sorted order; every other line must stay clean.
type fixtureCase struct {
	name  string
	rules []string
	want  map[string][]string
}

func fixtureCases() []fixtureCase {
	return []fixtureCase{
		{
			name:  "detrand",
			rules: []string{"detrand"},
			want: map[string][]string{
				"internal/sched/fixture.go:13": {"detrand"},
				"internal/sched/fixture.go:18": {"detrand"},
				"internal/sched/fixture.go:19": {"detrand"},
				"internal/sched/fixture.go:20": {"detrand", "detrand"},
				"internal/sched/fixture.go:25": {"detrand"},
			},
		},
		{
			name:  "simclock",
			rules: []string{"simclock"},
			want: map[string][]string{
				"internal/sim/fixture.go:10": {"simclock"},
				"internal/sim/fixture.go:11": {"simclock"},
				"internal/sim/fixture.go:15": {"simclock"},
				"internal/sim/fixture.go:20": {"simclock"},
				"internal/sim/fixture.go:22": {"simclock"},
				// internal/service and cmd/tool read the clock too, but sit
				// outside the rule's scope: nothing expected there.
			},
		},
		{
			name:  "floateq",
			rules: []string{"floateq"},
			want: map[string][]string{
				"internal/objective/fixture.go:12":  {"floateq"},
				"internal/objective/fixture.go:13":  {"floateq"},
				"internal/objective/fixture.go:18":  {"floateq"},
				"internal/objective/fixture.go:23":  {"floateq"},
				"internal/objective/stdcalls.go:12": {"floateq"},
			},
		},
		{
			name:  "noprint",
			rules: []string{"noprint"},
			want: map[string][]string{
				"internal/foo/fixture.go:18": {"noprint"},
				"internal/foo/fixture.go:19": {"noprint"},
				"internal/foo/fixture.go:20": {"noprint"},
				"internal/foo/fixture.go:42": {"noprint"},
				"internal/foo/fixture.go:43": {"noprint"},
				"internal/foo/fixture.go:49": {"noprint"},
				"internal/foo/fixture.go:50": {"noprint"},
			},
		},
		{
			name:  "randshare",
			rules: []string{"randshare"},
			want: map[string][]string{
				"internal/sched/fixture.go:19": {"randshare"},
				"internal/sched/fixture.go:28": {"randshare"},
				"internal/sched/fixture.go:36": {"randshare"},
				"internal/sched/fixture.go:44": {"randshare"},
				"internal/sched/fixture.go:45": {"randshare"},
				"internal/sched/fixture.go:52": {"randshare"},
				"internal/sched/fixture.go:68": {"randshare"},
			},
		},
		{
			name:  "lockheld",
			rules: []string{"lockheld"},
			want: map[string][]string{
				"internal/foo/fixture.go:25":  {"lockheld"},
				"internal/foo/fixture.go:42":  {"lockheld"},
				"internal/foo/fixture.go:51":  {"lockheld"},
				"internal/foo/fixture.go:58":  {"lockheld"},
				"internal/foo/fixture.go:66":  {"lockheld"},
				"internal/foo/fixture.go:110": {"lockheld"},
				"internal/foo/fixture.go:113": {"lockheld"},
			},
		},
		{
			name:  "goroleak",
			rules: []string{"goroleak"},
			want: map[string][]string{
				"internal/foo/fixture.go:11": {"goroleak"},
				"internal/foo/fixture.go:22": {"goroleak"},
				// cmd/tool launches fire-and-forget too, but commands are out
				// of scope: nothing expected there.
			},
		},
		{
			name:  "interproc",
			rules: []string{"detrand", "simclock"},
			want: map[string][]string{
				"internal/sched/fixture.go:12": {"detrand"},
				"internal/sim/fixture.go:12":   {"simclock"},
			},
		},
		{
			name:  "ignore",
			rules: []string{"floateq"},
			want: map[string][]string{
				"internal/objective/fixture.go:29": {"floateq"},
				"internal/objective/fixture.go:37": {"floateq"},
				"internal/objective/fixture.go:43": {"ignore"},
				"internal/objective/fixture.go:44": {"floateq"},
				"internal/objective/fixture.go:50": {"ignore"},
				"internal/objective/fixture.go:51": {"floateq"},
			},
		},
	}
}

func TestRulesOnFixtures(t *testing.T) {
	for _, tc := range fixtureCases() {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(Config{
				Dir:   filepath.Join("testdata", "src", tc.name),
				Rules: tc.rules,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got := make(map[string][]string)
			for _, d := range res.Diags {
				key := fmt.Sprintf("%s:%d", d.File, d.Line)
				got[key] = append(got[key], d.Rule)
			}
			for _, rules := range got {
				sort.Strings(rules)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("diagnostics mismatch\n got: %v\nwant: %v\nfull:\n%s", got, tc.want, renderDiags(res.Diags))
			}
		})
	}
}

func renderDiags(diags []Diagnostic) string {
	out := ""
	for _, d := range diags {
		out += d.String() + "\n"
	}
	return out
}

// TestSelfClean pins the acceptance criterion: the repository's own tree has
// zero findings under every rule (all remaining float sentinels carry
// justified suppressions).
func TestSelfClean(t *testing.T) {
	res, err := Run(Config{Dir: "../.."})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Diags) != 0 {
		t.Errorf("repository is not schedlint-clean:\n%s", renderDiags(res.Diags))
	}
	if res.Packages < 20 {
		t.Errorf("expected to analyze the whole module, got only %d packages", res.Packages)
	}
}

// TestSeededViolation proves the gate trips: a global math/rand call written
// into a scratch module's internal/sched package must produce a detrand
// diagnostic with its file:line.
func TestSeededViolation(t *testing.T) {
	dir := t.TempDir()
	pkg := filepath.Join(dir, "internal", "sched")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "go.mod"), "module seeded.example/repo\n\ngo 1.22\n")
	writeFile(t, filepath.Join(pkg, "bad.go"),
		"package sched\n\nimport \"math/rand\"\n\nfunc pick(n int) int {\n\treturn rand.Intn(n)\n}\n")

	res, err := Run(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Diags) != 1 {
		t.Fatalf("want exactly one finding, got %d:\n%s", len(res.Diags), renderDiags(res.Diags))
	}
	d := res.Diags[0]
	if d.Rule != "detrand" || d.File != "internal/sched/bad.go" || d.Line != 6 {
		t.Errorf("want detrand at internal/sched/bad.go:6, got %s", d.String())
	}
}

// TestSeededRandShareViolation pins the PR's both-ways acceptance criterion
// for randshare: a shared stream captured by a goroutine closure, planted in
// a scratch module, is flagged with its exact file:line:col; the surrounding
// clean derivation is not.
func TestSeededRandShareViolation(t *testing.T) {
	dir := t.TempDir()
	pkg := filepath.Join(dir, "internal", "worker")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "go.mod"), "module seeded.example/repo\n\ngo 1.22\n")
	writeFile(t, filepath.Join(pkg, "bad.go"), `package worker

import "math/rand"

func fanOut(r *rand.Rand, out chan<- int) {
	go func() {
		out <- r.Intn(100)
	}()
	go func() {
		local := rand.New(rand.NewSource(7))
		out <- local.Intn(100)
	}()
}
`)

	res, err := Run(Config{Dir: dir, Rules: []string{"randshare"}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Diags) != 1 {
		t.Fatalf("want exactly one finding, got %d:\n%s", len(res.Diags), renderDiags(res.Diags))
	}
	d := res.Diags[0]
	if d.Rule != "randshare" || d.File != "internal/worker/bad.go" || d.Line != 7 || d.Col != 10 {
		t.Errorf("want randshare at internal/worker/bad.go:7:10, got %s", d.String())
	}
}

func TestUnknownRule(t *testing.T) {
	if _, err := Run(Config{Dir: "../..", Rules: []string{"nosuchrule"}}); err == nil {
		t.Fatal("want error for unknown rule, got nil")
	}
}

func TestRuleNamesStable(t *testing.T) {
	want := []string{"detrand", "simclock", "floateq", "noprint", "randshare", "lockheld", "goroleak"}
	if got := RuleNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("rule registry changed: got %v want %v (names are suppression/CLI API)", got, want)
	}
}

// TestParallelismInvariant: the per-package pool is sized by GOMAXPROCS, so
// every fixture must yield identical diagnostics at pool widths 1, 2 and 8 —
// the same contract the engine enforces on the code it lints. Each fixture
// is loaded once and analyzed afresh at every width; the pool lives in the
// analysis step, so the load need not repeat. At least one multi-package
// fixture must have findings, or the comparison could not catch a
// cross-package merge or ordering bug.
func TestParallelismInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	multiPkgFindings := false
	for _, tc := range fixtureCases() {
		rules, err := selectRules(tc.rules)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ld, pkgs, err := load(Config{Dir: filepath.Join("testdata", "src", tc.name)})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var first []Diagnostic
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			res := analyze(ld, pkgs, rules)
			if procs == 1 {
				first = res.Diags
				multiPkgFindings = multiPkgFindings || (res.Packages >= 2 && len(res.Diags) > 0)
				continue
			}
			if !reflect.DeepEqual(res.Diags, first) {
				t.Errorf("%s: diagnostics at GOMAXPROCS=%d differ from GOMAXPROCS=1\n got:\n%s\nwant:\n%s",
					tc.name, procs, renderDiags(res.Diags), renderDiags(first))
			}
		}
	}
	if !multiPkgFindings {
		t.Error("no multi-package fixture produced findings; the invariance check is vacuous")
	}
}

// BenchmarkRunRepo measures a full-module analysis with a cold loader: every
// iteration parses and type-checks the whole repository.
func BenchmarkRunRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{Dir: "../.."})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Diags) != 0 {
			b.Fatalf("repo not clean: %d findings", len(res.Diags))
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
