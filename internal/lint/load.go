package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path (module path + "/" + Rel).
	Path string
	// Rel is the module-root-relative directory, "" for the root package.
	Rel string
	// Dir is the absolute directory.
	Dir string
	// Fset positions every file in the loader's shared FileSet.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package (possibly with swallowed errors).
	Types *types.Package
	// Info holds the recorded type information rules consult.
	Info *types.Info
}

// loader resolves and type-checks module packages. Module-internal imports
// are loaded recursively from source, because the call graph needs their
// ASTs; standard-library imports are read from the go command's export data
// (the same build-cache files go vet reads), located by one go list run per
// loader. An import found in neither fails the load: a rule that cannot see
// a package's types must not pass silently.
//
// Every package is parsed and type-checked exactly once per loader: targets
// and dependencies share one memoized universe (pkgs), so analyzing N
// packages that all import internal/cloud type-checks internal/cloud once,
// not N times. mu serializes the recursive load so a loader may be shared
// across goroutines.
type loader struct {
	mu      sync.Mutex
	fset    *token.FileSet
	modPath string // module path from go.mod
	modRoot string // absolute directory containing go.mod
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
	fakes   map[string]*types.Package
	// unresolved is the first import found neither in the module nor in
	// the standard library; it fails the whole load.
	unresolved error
}

// allLoaded returns every package the loader has materialized — targets and
// transitively loaded dependencies — sorted by import path. This is the
// universe the call graph is built over.
func (l *loader) allLoaded() []*Package {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// newLoader walks up from dir to the enclosing go.mod.
func newLoader(dir string) (*loader, error) {
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod found in or above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	exports, err := stdExports(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(importPath string) (io.ReadCloser, error) {
		file, ok := exports[importPath]
		if !ok {
			return nil, fmt.Errorf("neither in module %s nor in the standard library", modPath)
		}
		return os.Open(file)
	})
	return &loader{
		fset:    fset,
		modPath: modPath,
		modRoot: root,
		std:     std,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		fakes:   make(map[string]*types.Package),
	}, nil
}

// stdExports maps every standard-library package the module depends on to
// its export data file, building what the cache lacks. One go list run
// serves the whole loader; -e keeps a broken package from hiding the rest.
func stdExports(modRoot string) (map[string]string, error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps",
		"-f", "{{if .Standard}}{{.ImportPath}}\t{{.Export}}{{end}}", "./...")
	cmd.Dir = modRoot
	out, err := cmd.Output()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return nil, fmt.Errorf("go list: %w: %s", err, strings.TrimSpace(string(ee.Stderr)))
	}
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(string(out), "\n") {
		if importPath, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			exports[importPath] = file
		}
	}
	return exports, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module declaration", file)
}

// relFile rewrites an absolute file name to a module-root-relative one so
// diagnostics and golden files are stable across checkouts.
func (l *loader) relFile(name string) string {
	if rel, err := filepath.Rel(l.modRoot, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}

// loadPatterns expands patterns (relative to the module root) into package
// directories and loads each one. Results are sorted by import path.
func (l *loader) loadPatterns(patterns []string) ([]*Package, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		dir := filepath.Join(l.modRoot, filepath.FromSlash(pat))
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			return nil, fmt.Errorf("pattern %q: not a directory under the module root", pat)
		}
		if !recursive {
			if hasGoFiles(dir) {
				dirs[dir] = true
			}
			continue
		}
		err = filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != dir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				dirs[p] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	out := make([]*Package, 0, len(sorted))
	for _, d := range sorted {
		p, err := l.load(l.importPathFor(d))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// importPathFor maps an absolute directory inside the module to its import
// path.
func (l *loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil || rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

// hasGoFiles reports whether dir contains at least one non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if isSourceFile(e) {
			return true
		}
	}
	return false
}

func isSourceFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// load parses and type-checks one module package, memoized by import path.
// It is the locked public entry; the recursive work happens in loadLocked.
func (l *loader) load(importPath string) (*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, err := l.loadLocked(importPath)
	if l.unresolved != nil {
		return nil, l.unresolved
	}
	return p, err
}

// loadLocked does the real load under l.mu (the import callback re-enters it
// for module-internal dependencies, so it must not lock).
func (l *loader) loadLocked(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.modPath), "/")
	dir := filepath.Join(l.modRoot, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("package %s: %w", importPath, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if !isSourceFile(e) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("package %s: %w", importPath, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("package %s: no non-test Go files in %s", importPath, dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer:    (*moduleImporter)(l),
		FakeImportC: true,
		// A broken module-internal import leaves partial type information;
		// rules are written to tolerate it, so type errors are swallowed.
		Error: func(error) {},
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	p := &Package{
		Path:  importPath,
		Rel:   filepath.ToSlash(rel),
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[importPath] = p
	return p, nil
}

// moduleImporter resolves imports during type-checking: module-internal
// packages load from source and everything else from the standard library's
// export data. An import found in neither is recorded in l.unresolved.
type moduleImporter loader

func (im *moduleImporter) Import(importPath string) (*types.Package, error) {
	return im.ImportFrom(importPath, "", 0)
}

func (im *moduleImporter) ImportFrom(importPath, dir string, _ types.ImportMode) (*types.Package, error) {
	l := (*loader)(im)
	if importPath == l.modPath || strings.HasPrefix(importPath, l.modPath+"/") {
		p, err := l.loadLocked(importPath)
		if err != nil {
			// A broken internal import degrades to a placeholder so the
			// importing package still gets checked.
			return l.fake(importPath), nil
		}
		return p.Types, nil
	}
	p, err := l.std.Import(importPath)
	if err != nil && l.unresolved == nil {
		l.unresolved = fmt.Errorf("package %s: cannot resolve import %q: %v", l.importPathFor(dir), importPath, err)
	}
	return p, err
}

// fake returns an empty placeholder package whose name is the last path
// element, which is what qualified-identifier resolution needs.
func (l *loader) fake(importPath string) *types.Package {
	if p, ok := l.fakes[importPath]; ok {
		return p
	}
	p := types.NewPackage(importPath, path.Base(importPath))
	p.MarkComplete()
	l.fakes[importPath] = p
	return p
}
