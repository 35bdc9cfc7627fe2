package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// This file is the interprocedural half of the engine: a per-module static
// call graph built over the loader's shared go/types objects. Because the
// loader memoizes every module package (targets and dependencies alike) in
// one type-checker universe, a *types.Func seen at a call site in package A
// is the very same object as the one seen at its declaration in package B —
// so edges unify across packages for free.
//
// The graph is deliberately conservative on dynamic dispatch: calls through
// interface methods and through function-typed variables produce no edge.
// Rules built on the graph therefore never report a violation that cannot
// happen through the recorded static calls; they may miss violations routed
// through dynamic calls, which the dynamic invariants in internal/check
// still cover.

// sinkCall is one direct call from a module function into a standard-library
// package member (time.Now, rand.Intn, ...). Rules query these with a
// predicate; the graph does not interpret them.
type sinkCall struct {
	pkg  string // import path of the standard-library package
	name string // member name
	pos  token.Pos
}

// callEdge is one static call from a module function to another module
// function, positioned at the call expression.
type callEdge struct {
	callee *types.Func
	pos    token.Pos
}

// funcNode is the per-function record of the call graph.
type funcNode struct {
	fn    *types.Func
	pkg   *Package // declaring package
	decl  *ast.FuncDecl
	calls []callEdge
	sinks []sinkCall
	// communicates is the memoized goroleak property: the function body
	// directly joins/communicates (WaitGroup Done/Wait, channel op, close,
	// context use). Transitive closure is computed on demand.
	communicates bool
}

// CallGraph is the module-wide static call graph plus the derived
// fan-out-parameter facts the randshare rule consumes.
type CallGraph struct {
	nodes map[*types.Func]*funcNode
	// concurrentParams[fn][i] is true when fn's i-th parameter is a
	// function value that fn (or a fan-out function fn forwards it to)
	// invokes or references from inside a `go` statement. A closure passed
	// at such a position escapes onto another goroutine.
	concurrentParams map[*types.Func][]bool
}

// buildCallGraph constructs the graph over every loaded module package.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes:            make(map[*types.Func]*funcNode),
		concurrentParams: make(map[*types.Func][]bool),
	}
	for _, p := range pkgs {
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
				g.addFunc(canonical(fn), p, fd)
			}
		}
	}
	g.markConcurrentParams(pkgs)
	return g
}

// canonical maps a possibly-instantiated generic function to its declared
// origin so call sites and declarations key the same node.
func canonical(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// addFunc records one declared function: its static callees and its direct
// standard-library sink calls. Calls made inside function literals nested in
// the body are attributed to the enclosing declared function — a closure
// runs with the enclosing function's obligations as far as determinism
// scoping is concerned.
func (g *CallGraph) addFunc(fn *types.Func, p *Package, fd *ast.FuncDecl) {
	node := &funcNode{fn: fn, pkg: p, decl: fd}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, spkg, sname := resolveCall(p, call)
		switch {
		case callee != nil:
			node.calls = append(node.calls, callEdge{callee: callee, pos: call.Pos()})
		case spkg != "":
			node.sinks = append(node.sinks, sinkCall{pkg: spkg, name: sname, pos: call.Pos()})
		}
		return true
	})
	node.communicates = bodyCommunicates(p, fd.Body)
	g.nodes[fn] = node
}

// resolveCall resolves a call expression to a static callee: either a
// declared function/method (callee != nil) or a standard-library package
// member (pkg, name). Interface-method and function-value calls resolve to
// neither — the conservative non-edge.
func resolveCall(p *Package, call *ast.CallExpr) (callee *types.Func, pkg, name string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return classifyFunc(canonical(fn), p)
		}
	case *ast.SelectorExpr:
		// Package-qualified call: pkg.Fn(...).
		if _, _, ok := pkgMember(p.Info, fun); ok {
			if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
				return classifyFunc(canonical(fn), p)
			}
			return nil, "", ""
		}
		// Method call: static only when the receiver is a concrete type.
		if sel, ok := p.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return nil, "", "" // dynamic dispatch: no edge
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return classifyFunc(canonical(fn), p)
			}
		}
	}
	return nil, "", ""
}

// classifyFunc splits a resolved function into a module-internal callee or a
// standard-library sink, identified by its import path and member name,
// which is what sink predicates match.
func classifyFunc(fn *types.Func, p *Package) (*types.Func, string, string) {
	fp := fn.Pkg()
	if fp == nil {
		return nil, "", "" // builtins (len, append) and error.Error
	}
	if fp == p.Types || isModulePath(fp.Path(), p) {
		return fn, "", ""
	}
	return nil, fp.Path(), fn.Name()
}

// isModulePath reports whether path names a package of the module under
// analysis (p belongs to it, so its Path/Rel pair gives the module prefix).
func isModulePath(path string, p *Package) bool {
	mod := strings.TrimSuffix(p.Path, "/"+p.Rel)
	if p.Rel == "" {
		mod = p.Path
	}
	return path == mod || strings.HasPrefix(path, mod+"/")
}

// node returns the graph node for fn, or nil for functions without bodies
// in the module (standard-library or interface methods).
func (g *CallGraph) node(fn *types.Func) *funcNode {
	return g.nodes[canonical(fn)]
}

// SinkPath is one witness that a function transitively reaches a
// standard-library sink: the chain of module functions ending at the
// function whose body contains the sink call.
type SinkPath struct {
	Funcs []*types.Func
	Pkg   string // sink package path
	Name  string // sink member name
	Pos   token.Pos
}

// String renders the chain as "a → b → time.Now" using package-qualified
// names, ending at the sink itself.
func (sp *SinkPath) String() string {
	parts := make([]string, 0, len(sp.Funcs)+1)
	for _, fn := range sp.Funcs {
		parts = append(parts, funcDisplayName(fn))
	}
	parts = append(parts, sinkPkgBase(sp.Pkg)+"."+sp.Name)
	return strings.Join(parts, " → ")
}

// funcDisplayName renders pkg.Func or pkg.(*T).Method for diagnostics.
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		if base := fn.Pkg().Name(); base != "" {
			return base + "." + name
		}
	}
	return name
}

// Reaches reports whether fn's body, or any module function statically
// reachable from it, calls a standard-library member matched by sink. It
// returns the first witness path found (deterministic: edges are visited in
// source order) or nil. Results are not memoized across predicates; callers
// memoize per rule via reachCache.
func (g *CallGraph) Reaches(fn *types.Func, sink func(pkg, name string) bool) *SinkPath {
	return g.reach(canonical(fn), sink, make(map[*types.Func]bool))
}

func (g *CallGraph) reach(fn *types.Func, sink func(pkg, name string) bool, seen map[*types.Func]bool) *SinkPath {
	if seen[fn] {
		return nil
	}
	seen[fn] = true
	node := g.nodes[fn]
	if node == nil {
		return nil
	}
	for _, s := range node.sinks {
		if sink(s.pkg, s.name) {
			return &SinkPath{Funcs: []*types.Func{fn}, Pkg: s.pkg, Name: s.name, Pos: s.pos}
		}
	}
	for _, e := range node.calls {
		if sp := g.reach(canonical(e.callee), sink, seen); sp != nil {
			return &SinkPath{Funcs: append([]*types.Func{fn}, sp.Funcs...), Pkg: sp.Pkg, Name: sp.Name, Pos: sp.Pos}
		}
	}
	return nil
}

// reachCache memoizes Reaches results for one (rule, run) pair so a hot
// helper queried from many call sites is walked once. It is shared across
// the per-package analysis workers, hence the lock.
type reachCache struct {
	g    *CallGraph
	sink func(pkg, name string) bool

	mu   sync.Mutex
	memo map[*types.Func]*SinkPath
}

func newReachCache(g *CallGraph, sink func(pkg, name string) bool) *reachCache {
	return &reachCache{g: g, sink: sink, memo: make(map[*types.Func]*SinkPath)}
}

func (rc *reachCache) reaches(fn *types.Func) *SinkPath {
	fn = canonical(fn)
	rc.mu.Lock()
	if sp, ok := rc.memo[fn]; ok {
		rc.mu.Unlock()
		return sp
	}
	rc.mu.Unlock()
	sp := rc.g.Reaches(fn, rc.sink)
	rc.mu.Lock()
	rc.memo[fn] = sp
	rc.mu.Unlock()
	return sp
}

// Communicates reports whether fn, or any module function statically
// reachable from it, performs a join/communication action (WaitGroup
// Done/Wait, channel send/receive/close, context use). goroleak treats a
// goroutine whose body communicates as observable — it has a join channel or
// a WaitGroup tying it back to a waiter.
func (g *CallGraph) Communicates(fn *types.Func) bool {
	return g.communicates(canonical(fn), make(map[*types.Func]bool))
}

func (g *CallGraph) communicates(fn *types.Func, seen map[*types.Func]bool) bool {
	if seen[fn] {
		return false
	}
	seen[fn] = true
	node := g.nodes[fn]
	if node == nil {
		return false
	}
	if node.communicates {
		return true
	}
	for _, e := range node.calls {
		if g.communicates(canonical(e.callee), seen) {
			return true
		}
	}
	return false
}

// bodyCommunicates is the direct (intra-body) half of the goroleak property.
func bodyCommunicates(p *Package, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t, ok := p.Info.Types[e.X]; ok && t.Type != nil {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.SelectStmt:
			found = true
		case *ast.CallExpr:
			switch fun := ast.Unparen(e.Fun).(type) {
			case *ast.Ident:
				if fun.Name == "close" {
					if _, isBuiltin := p.Info.Uses[fun].(*types.Builtin); isBuiltin {
						found = true
					}
				}
			case *ast.SelectorExpr:
				if isSyncMethod(p, fun, "WaitGroup", "Done") || isSyncMethod(p, fun, "WaitGroup", "Wait") ||
					isSyncMethod(p, fun, "Cond", "Wait") || isSyncMethod(p, fun, "Cond", "Signal") ||
					isSyncMethod(p, fun, "Cond", "Broadcast") {
					found = true
				}
				// ctx.Done(), ctx.Err(), ctx.Deadline(): context-aware
				// goroutines have a cancellation protocol.
				if spkg, _, ok := typeNamedIn(p, fun.X); ok && spkg == "context" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isSyncMethod reports whether sel is a method call named method on a value
// whose (possibly pointered) named type is sync.typeName.
func isSyncMethod(p *Package, sel *ast.SelectorExpr, typeName, method string) bool {
	if sel.Sel.Name != method {
		return false
	}
	pkg, name, ok := typeNamedIn(p, sel.X)
	return ok && pkg == "sync" && name == typeName
}

// typeNamedIn resolves expr's named type to (declaring package path, type
// name), unwrapping one pointer level.
func typeNamedIn(p *Package, expr ast.Expr) (string, string, bool) {
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Type == nil {
		return "", "", false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), true
}

// markConcurrentParams computes, to a fixpoint, which function parameters
// escape onto goroutines: directly (the parameter is referenced inside a
// `go` statement in the declaring body) or transitively (the parameter is
// forwarded as an argument into an already-marked position of another
// call). objective.ParallelFor's fn parameter is the canonical direct case;
// a wrapper that forwards its callback into ParallelFor is the transitive
// one.
func (g *CallGraph) markConcurrentParams(pkgs []*Package) {
	// Seed: parameters referenced inside go statements of their own body.
	for fn, node := range g.nodes {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		params := paramObjects(sig)
		if len(params) == 0 {
			continue
		}
		marks := make([]bool, len(params))
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			ast.Inspect(gs.Call, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				obj := node.pkg.Info.Uses[id]
				for i, p := range params {
					if p != nil && obj == p && isFuncType(p.Type()) {
						marks[i] = true
					}
				}
				return true
			})
			return true
		})
		for _, m := range marks {
			if m {
				g.concurrentParams[fn] = marks
				break
			}
		}
	}

	// Propagate: a parameter forwarded into a concurrent position is itself
	// concurrent. Iterate to fixpoint (the forward graph is small).
	for changed := true; changed; {
		changed = false
		for fn, node := range g.nodes {
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				continue
			}
			params := paramObjects(sig)
			if len(params) == 0 {
				continue
			}
			ast.Inspect(node.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee, _, _ := resolveCall(node.pkg, call)
				if callee == nil {
					return true
				}
				cmarks := g.concurrentParams[callee]
				if cmarks == nil {
					return true
				}
				for ai, arg := range call.Args {
					if ai >= len(cmarks) || !cmarks[ai] {
						continue
					}
					id, ok := ast.Unparen(arg).(*ast.Ident)
					if !ok {
						continue
					}
					obj := node.pkg.Info.Uses[id]
					for pi, p := range params {
						if p != nil && obj == p && isFuncType(p.Type()) {
							marks := g.concurrentParams[fn]
							if marks == nil {
								marks = make([]bool, len(params))
								g.concurrentParams[fn] = marks
							}
							if !marks[pi] {
								marks[pi] = true
								changed = true
							}
						}
					}
				}
				return true
			})
		}
	}
}

// ConcurrentArg reports whether the i-th argument position of a call to fn
// hands the value to another goroutine.
func (g *CallGraph) ConcurrentArg(fn *types.Func, i int) bool {
	marks := g.concurrentParams[canonical(fn)]
	return i < len(marks) && marks[i]
}

// paramObjects flattens a signature's parameter objects (variadic included).
func paramObjects(sig *types.Signature) []*types.Var {
	tuple := sig.Params()
	out := make([]*types.Var, tuple.Len())
	for i := 0; i < tuple.Len(); i++ {
		out[i] = tuple.At(i)
	}
	return out
}

// isFuncType reports whether t's underlying type is a function signature.
func isFuncType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}
