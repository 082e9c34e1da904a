// Package lint is jm-lint: a static-analysis suite enforcing the
// repo's determinism invariants on the simulation packages.
//
// The headline guarantee of the engine work (docs/ENGINE.md,
// docs/PERF.md) — byte-identical StateDigest and trace output across
// shard counts and stepping modes — is easy to break silently: one
// `range` over a map in a digest or hook path, one wall-clock
// read feeding simulation state, one goroutine spawned inside a
// per-cycle step path. The runtime equivalence sweeps only catch a
// divergence when a test happens to exercise it; the analyzers here
// catch the pattern at compile time.
//
// The suite is built directly on go/parser and go/types (the container
// image carries no golang.org/x/tools, so the go/analysis machinery is
// reimplemented in miniature): Load type-checks the target packages —
// resolving the module's own imports from the repository and the
// standard library from GOROOT source, fully offline — and the
// analyzers in this package walk the typed syntax. cmd/jm-lint is the
// driver; docs/LINT.md describes each diagnostic and its suppression
// annotation.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path ("jmachine/internal/mdp")
	Dir   string
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File
	// Notes holds the parsed //jm: annotations of every file, keyed by
	// the line the annotation applies to.
	Notes map[*ast.File]Annotations
}

// Program is a set of packages loaded together: analyzers that follow
// calls across package boundaries (reachability from digest or step
// roots) see the whole set at once.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package // target packages, sorted by import path

	byPath map[string]*Package
	graph  *callGraph          // built lazily by CallGraph
	exempt map[*types.Var]bool // built lazily by exemptFields
}

// Loader type-checks packages without the go command or the network:
// module-local import paths resolve against the repository, everything
// else against GOROOT/src. The zero Loader is not usable; use NewLoader.
type Loader struct {
	fset    *token.FileSet
	modPath string // module path from go.mod ("jmachine")
	modDir  string // module root directory
	goroot  string
	ctxt    build.Context

	pkgs    map[string]*types.Package // completed type-checked imports
	loading map[string]bool           // import-cycle guard
	typed   map[string]*Package       // full syntax+info, target packages only
}

// NewLoader returns a loader rooted at the module directory modDir.
func NewLoader(modDir string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	// Module resolution is done by this loader, not go/build: keep
	// go/build in plain directory mode so no go command is invoked.
	ctxt.GOPATH = ""
	// Type-check the pure-Go shape of the standard library: cgo files
	// reference _C_ types that only exist after cgo preprocessing, and
	// packages with cgo fallbacks (net, os/user) build without them.
	ctxt.CgoEnabled = false
	return &Loader{
		fset:    token.NewFileSet(),
		modPath: modPath,
		modDir:  modDir,
		goroot:  runtime.GOROOT(),
		ctxt:    ctxt,
		pkgs:    make(map[string]*types.Package),
		loading: make(map[string]bool),
		typed:   make(map[string]*Package),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// dirFor maps an import path to the directory holding its source.
func (l *Loader) dirFor(path string) (string, error) {
	if path == l.modPath {
		return l.modDir, nil
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.modDir, filepath.FromSlash(rest)), nil
	}
	dir := filepath.Join(l.goroot, "src", filepath.FromSlash(path))
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return dir, nil
	}
	// Standard-library dependencies vendored into GOROOT (net/http →
	// golang.org/x/crypto/... and friends) live under src/vendor.
	vdir := filepath.Join(l.goroot, "src", "vendor", filepath.FromSlash(path))
	if fi, err := os.Stat(vdir); err == nil && fi.IsDir() {
		return vdir, nil
	}
	return "", fmt.Errorf("lint: cannot resolve import %q (module %s, offline loader)", path, l.modPath)
}

// Import implements types.Importer for the checker: every dependency —
// module-local or standard library — is type-checked from source.
// Module-local packages keep their full syntax and type info on the
// first check, whether they arrive as an import or as a Load target:
// a path must map to exactly one *types.Package or identical types
// from different check passes would not be identical.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	full := path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
	pkg, tp, err := l.check(path, full)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	if full {
		l.typed[path] = tp
	}
	return pkg, nil
}

// check parses and type-checks one package. When full is set the
// syntax and type info are retained for analysis.
func (l *Loader) check(path string, full bool) (*types.Package, *Package, error) {
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, nil, err
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(error) {}, // collect via the returned error only
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	if !full {
		return pkg, nil, nil
	}
	tp := &Package{
		Path:  path,
		Dir:   dir,
		Pkg:   pkg,
		Info:  info,
		Files: files,
		Notes: make(map[*ast.File]Annotations),
	}
	for _, f := range files {
		tp.Notes[f] = parseAnnotations(l.fset, f)
	}
	return pkg, tp, nil
}

// Load type-checks the named target packages (import paths relative to
// the module, e.g. "internal/mdp", or absolute "jmachine/internal/mdp")
// and returns them as one Program.
func (l *Loader) Load(paths ...string) (*Program, error) {
	prog := &Program{Fset: l.fset, byPath: make(map[string]*Package)}
	for _, p := range paths {
		if !strings.HasPrefix(p, l.modPath) {
			p = l.modPath + "/" + strings.TrimPrefix(p, "./")
		}
		if _, done := prog.byPath[p]; done {
			continue
		}
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
		tp := l.typed[p]
		if tp == nil {
			return nil, fmt.Errorf("lint: %s is not a module-local package", p)
		}
		prog.byPath[p] = tp
		prog.Pkgs = append(prog.Pkgs, tp)
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// LoadDirs resolves directories (as given on a command line, possibly
// with /... wildcards) to package paths and loads them.
func (l *Loader) LoadDirs(patterns ...string) (*Program, error) {
	var paths []string
	seen := make(map[string]bool)
	add := func(dir string) {
		rel, err := filepath.Rel(l.modDir, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return
		}
		if !hasGoFiles(dir) {
			return
		}
		p := l.modPath
		if rel != "." {
			p += "/" + filepath.ToSlash(rel)
		}
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.modDir, dir)
		}
		if !recursive {
			add(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("lint: no packages match %v", patterns)
	}
	return l.Load(paths...)
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") && !e.IsDir() {
			return true
		}
	}
	return false
}
