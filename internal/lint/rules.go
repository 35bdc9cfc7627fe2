package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// deterministicPkgs are the packages whose behavior must be a pure function
// of (inputs, seed): the bio-inspired schedulers and baselines, the
// simulation engine, the shared objective layer, and workload generation.
// detrand and simclock police these; floateq polices the same set because
// its Eq. 12/13 style accumulations live here.
var deterministicPkgs = []string{
	"internal/aco",
	"internal/hbo",
	"internal/rbs",
	"internal/ga",
	"internal/pso",
	"internal/hybrid",
	"internal/elastic",
	"internal/sched",
	"internal/sim",
	"internal/objective",

	"internal/online",
	"internal/workload",
	"internal/tracecol",
	"internal/cloud",
	"internal/check",
	"internal/schedtest",
	"internal/plan",
	"internal/qmodel",
}

// simclockExempt are packages inside the deterministic set's neighborhood
// that legitimately read the wall clock: the daemon and the experiment
// runner measure real scheduling time (the paper's SA metric), and commands
// talk to humans in real time.
//
// Note simclock's scope is deterministicPkgs, so this allowlist is
// documentation of *why* internal/service, internal/experiments, and cmd/*
// are outside it rather than a filter applied at runtime — keep the two in
// sync if the scope ever widens.
var simclockExempt = []string{
	"internal/service",
	"internal/experiments",
	"cmd",
}

// registry holds every rule in canonical order. Rule names are part of the
// suppression and -rules surface; treat them as API. New rules append —
// renaming or reordering breaks committed suppressions and baselines.
var registry = []Rule{
	{
		Name:  "detrand",
		Doc:   "no global math/rand functions or wall-clock-seeded rand.New in deterministic packages, directly or through helpers; inject a seeded *rand.Rand (internal/xrand)",
		Scope: func(rel string) bool { return inScope(rel, deterministicPkgs) },
		Check: checkDetRand,
	},
	{
		Name:  "simclock",
		Doc:   "no time.Now/Since/Sleep/... in simulation and scheduler packages, directly or through helpers; the engine's simulated clock is the only time source",
		Scope: func(rel string) bool { return inScope(rel, deterministicPkgs) },
		Check: checkSimClock,
	},
	{
		Name:  "floateq",
		Doc:   "no ==/!= between floating-point operands in scheduler/objective code; use an epsilon or an integer representation",
		Scope: func(rel string) bool { return inScope(rel, deterministicPkgs) },
		Check: checkFloatEq,
	},
	{
		Name:  "noprint",
		Doc:   "no fmt.Print*/print/println, log.Print*/Fatal*/Panic*, or os.Stdout/os.Stderr writes in library packages; render through internal/report or an injected io.Writer",
		Scope: func(rel string) bool { return underDir(rel, "internal") },
		Check: checkNoPrint,
	},
	{
		Name:  "mutexcopy",
		Doc:   "no by-value copies of types containing a sync lock (params, results, assignments, range variables)",
		Scope: func(rel string) bool { return true },
		Check: checkMutexCopy,
	},
	{
		Name:  "randshare",
		Doc:   "no *rand.Rand/xrand.Source shared across goroutines (go closures, ParallelFor-style callbacks); split per-index child streams instead",
		Scope: func(rel string) bool { return true },
		Check: checkRandShare,
	},
	{
		Name:  "lockheld",
		Doc:   "no channel ops or blocking waits while holding a mutex, and no `guarded by:` field access without its lock",
		Scope: func(rel string) bool { return true },
		Check: checkLockHeld,
	},
	{
		Name:  "goroleak",
		Doc:   "no goroutine launched in internal/ without a visible join (WaitGroup, channel, or context)",
		Scope: func(rel string) bool { return underDir(rel, "internal") },
		Check: checkGoroLeak,
	},
}

// pkgMember resolves a selector expression to (package path, member name)
// when its qualifier is an imported package, e.g. rand.Intn → ("math/rand",
// "Intn"). It follows go/types resolution, so locally shadowed package names
// are not misreported.
func pkgMember(info *types.Info, sel *ast.SelectorExpr) (string, string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// walkFiles applies fn to every node of every file in the package.
func walkFiles(p *Package, fn func(n ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// reportTransitiveSinks is the interprocedural core shared by detrand and
// simclock: for every call in p that leaves the rule's scope into another
// module package, ask the call graph whether the callee transitively
// reaches a forbidden standard-library sink, and report the witness path at
// the call site. Calls to functions in in-scope packages are skipped — the
// rule flags those directly at their own bodies, so one violation yields
// one finding, at the innermost in-scope frame.
func reportTransitiveSinks(a *Analysis, p *Package, ruleName string, ruleScope func(rel string) bool,
	sink func(pkg, name string) bool, report func(pos token.Pos, format string, args ...any)) {
	rc := a.reachCacheFor(ruleName, sink)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := a.Graph.node(fn)
			if node == nil {
				continue
			}
			for _, edge := range node.calls {
				calleePkg := edge.callee.Pkg()
				if calleePkg == nil {
					continue
				}
				if rel, ok := a.RelOf(calleePkg); !ok || ruleScope(rel) {
					continue // in-scope callee: flagged at its own body
				}
				if sp := rc.reaches(edge.callee); sp != nil {
					report(edge.pos, "call to %s transitively reaches %s.%s (via %s)", funcDisplayName(edge.callee), sinkPkgBase(sp.Pkg), sp.Name, sp.String())
				}
			}
		}
	}
}

// sinkPkgBase shortens a sink package path for messages (math/rand → rand).
func sinkPkgBase(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}
