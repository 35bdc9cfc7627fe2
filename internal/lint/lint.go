// Package lint is schedlint's analysis engine: a static analyzer built on the
// standard library's go/* packages alone (no golang.org/x/tools) that
// enforces the repository's determinism, simulated-clock, float-safety, and
// concurrency invariants.
//
// The paper's comparisons are only reproducible when every scheduler run is a
// pure function of its inputs and seed. That discipline is threaded through
// the code by convention — randomness flows through an injected *rand.Rand
// (internal/xrand) and is split, never shared, across goroutines; simulation
// code reads time only from the engine's simulated clock; Eq. 12/13 style
// float accumulations are never compared exactly. One stray global rand call,
// wall-clock read, or shared stream silently breaks replays; this package
// turns each convention into a machine-checked rule:
//
//   - detrand:   no global math/rand functions (and no wall-clock-seeded
//     rand.New) in deterministic packages — including transitively, through
//     helpers in other module packages (the call graph proves it).
//   - simclock:  no time.Now/Since/Sleep/... in simulation and scheduler
//     packages, directly or through any statically reachable helper.
//   - floateq:   no ==/!= between floating-point operands in scheduler and
//     objective code.
//   - noprint:   no fmt.Print*/println, log.Print*/Fatal*/Panic*, or
//     os.Stdout/os.Stderr writes in library packages; output goes through
//     internal/report.
//   - randshare: no *rand.Rand / xrand.Source value captured by a goroutine
//     closure or a worker-pool callback (objective.ParallelFor and friends);
//     derive a per-index child stream instead (PR 5 determinism model).
//   - lockheld:  no channel operations or blocking waits while holding a
//     mutex, and no access to a "// guarded by: mu" field without the lock.
//   - goroleak:  no goroutine launched in internal/ without a visible join
//     (sync.WaitGroup, channel, or context).
//
// The engine is interprocedural: the loader type-checks every module package
// once into one shared universe, against the standard library's real types
// (the go command's export data), a static call graph links them
// (conservative on dynamic dispatch), and a lightweight dataflow layer
// distinguishes values created inside a concurrency scope from values
// captured across it.
//
// A finding can be suppressed, with an audit trail, by a comment on the same
// line or the line above:
//
//	//schedlint:ignore <rule> <reason>
//
// The reason is mandatory; malformed or unknown-rule directives are
// themselves diagnosed (rule "ignore") so typos cannot silently disable a
// check. That directive is the only suppression: every other finding fails
// the gate.
package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// SchemaVersion names the diagnostic output schema: the SARIF writer emits
// it as the driver's semanticVersion. Bump it when the report changes
// shape.
const SchemaVersion = "schedlint/v3"

// Diagnostic is one finding, positioned at a module-root-relative file path.
type Diagnostic struct {
	File    string
	Line    int
	Col     int
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Rule)
}

// Rule is one named invariant check. Check appends findings for a single
// loaded package; the engine handles scoping, suppression, and ordering.
type Rule struct {
	// Name is the identifier used by -rules and //schedlint:ignore.
	Name string
	// Doc is a one-line description shown by schedlint -list.
	Doc string
	// Scope reports whether the rule applies to a package, identified by its
	// module-root-relative path (e.g. "internal/sched", "cmd/schedd").
	Scope func(rel string) bool
	// Check reports findings via report; positions are token.Pos values in
	// the package's FileSet. a carries the whole-module context (call graph,
	// every loaded package) for interprocedural rules.
	Check func(a *Analysis, p *Package, report func(pos token.Pos, format string, args ...any))
}

// Config selects what Run analyzes.
type Config struct {
	// Dir is any directory inside the target module; the engine walks up to
	// the enclosing go.mod. Empty means ".".
	Dir string
	// Patterns are package patterns relative to Dir: a directory path like
	// ./internal/sched, or a tree like ./... . Empty means ["./..."].
	Patterns []string
	// Rules are the enabled rule names; empty means all registered rules.
	Rules []string
}

// Result is a completed analysis.
type Result struct {
	// Diags are the surviving findings, sorted by file, line, column, rule.
	Diags []Diagnostic
	// Packages is the number of packages analyzed.
	Packages int
}

// Analysis is the whole-module context handed to every rule: all loaded
// packages (targets and dependencies in one type-checker universe) and the
// static call graph over them.
type Analysis struct {
	// Pkgs is every loaded module package, sorted by import path.
	Pkgs []*Package
	// Graph is the module-wide static call graph.
	Graph *CallGraph

	byTypes map[*types.Package]*Package

	mu    sync.Mutex
	reach map[string]*reachCache
}

func newAnalysis(pkgs []*Package) *Analysis {
	a := &Analysis{
		Pkgs:    pkgs,
		Graph:   buildCallGraph(pkgs),
		byTypes: make(map[*types.Package]*Package, len(pkgs)),
		reach:   make(map[string]*reachCache),
	}
	for _, p := range pkgs {
		if p.Types != nil {
			a.byTypes[p.Types] = p
		}
	}
	return a
}

// RelOf resolves a loaded types.Package back to its module-root-relative
// directory. ok is false for standard-library packages and placeholders.
func (a *Analysis) RelOf(tp *types.Package) (string, bool) {
	p, ok := a.byTypes[tp]
	if !ok {
		return "", false
	}
	return p.Rel, true
}

// reachCacheFor returns the shared, concurrency-safe sink-reachability cache
// for one rule, so a hot helper queried from many packages is walked once.
func (a *Analysis) reachCacheFor(rule string, sink func(pkg, name string) bool) *reachCache {
	a.mu.Lock()
	defer a.mu.Unlock()
	rc, ok := a.reach[rule]
	if !ok {
		rc = newReachCache(a.Graph, sink)
		a.reach[rule] = rc
	}
	return rc
}

// Rules returns the registered rules in their canonical order.
func Rules() []Rule { return registry }

// RuleNames returns the registered rule names in canonical order.
func RuleNames() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.Name
	}
	return names
}

// Run loads every package matched by cfg and applies the enabled rules.
// It returns an error only for environmental failures (no module, bad
// pattern, unknown rule name); findings are data, not errors.
func Run(cfg Config) (*Result, error) {
	rules, err := selectRules(cfg.Rules)
	if err != nil {
		return nil, err
	}
	ld, pkgs, err := load(cfg)
	if err != nil {
		return nil, err
	}
	return analyze(ld, pkgs, rules), nil
}

// load parses and type-checks every package matched by cfg's patterns,
// returning the loader (whose universe includes their module dependencies)
// and the matched packages. Loaded packages are never mutated afterwards,
// so one load can feed any number of analyses.
func load(cfg Config) (*loader, []*Package, error) {
	ld, err := newLoader(cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := ld.loadPatterns(patterns)
	if err != nil {
		return nil, nil, err
	}
	return ld, pkgs, nil
}

// analyze builds a fresh whole-program analysis over ld's universe and
// applies rules to pkgs, returning the sorted findings.
func analyze(ld *loader, pkgs []*Package, rules []Rule) *Result {
	analysis := newAnalysis(ld.allLoaded())

	// Per-package rule application fans out across min(GOMAXPROCS, len(pkgs))
	// workers; each writes only its own package's slot, and the final
	// merge+sort is order-insensitive, so results are bit-identical at every
	// pool width — the same contract the engine enforces on the code it
	// lints. A pool of one is the serial case.
	perPkg := make([][]Diagnostic, len(pkgs))
	workers := min(runtime.GOMAXPROCS(0), len(pkgs))
	analyze := func(i int) {
		p := pkgs[i]
		sup := scanSuppressions(p, ld.relFile)
		diags := append([]Diagnostic(nil), sup.malformed...)
		for _, r := range rules {
			if r.Scope != nil && !r.Scope(p.Rel) {
				continue
			}
			rule := r // capture for the closure below
			r.Check(analysis, p, func(pos token.Pos, format string, args ...any) {
				position := p.Fset.Position(pos)
				d := Diagnostic{
					File:    ld.relFile(position.Filename),
					Line:    position.Line,
					Col:     position.Column,
					Rule:    rule.Name,
					Message: fmt.Sprintf(format, args...),
				}
				if sup.suppresses(d) {
					return
				}
				diags = append(diags, d)
			})
		}
		perPkg[i] = diags
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				analyze(i)
			}
		}()
	}
	for i := range pkgs {
		next <- i
	}
	close(next)
	wg.Wait()

	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return &Result{Diags: diags, Packages: len(pkgs)}
}

// selectRules resolves names against the registry, defaulting to all.
func selectRules(names []string) ([]Rule, error) {
	if len(names) == 0 {
		return registry, nil
	}
	byName := make(map[string]Rule, len(registry))
	for _, r := range registry {
		byName[r.Name] = r
	}
	var out []Rule
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		r, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (known: %s)", n, strings.Join(RuleNames(), ", "))
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rules selected")
	}
	return out, nil
}

// inScope reports whether module-relative path rel is pkgs[i] or below it.
func inScope(rel string, pkgs []string) bool {
	for _, p := range pkgs {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// underDir reports whether rel sits under the given top-level directory.
func underDir(rel, dir string) bool {
	return rel == dir || strings.HasPrefix(rel, dir+"/")
}
