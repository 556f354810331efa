package vet

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one parsed, type-checked package of the module under analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// TypesPkg/Info may be partially populated when TypeErrs is non-empty;
	// rules fall back to syntactic resolution in that case.
	TypesPkg *types.Package
	Info     *types.Info
	TypeErrs []error
	// ignores maps filename -> line -> rules suppressed on that line ("" =
	// all rules). Every parsed file has an entry, possibly empty.
	ignores map[string]map[int][]string
}

// ignored reports whether a finding of rule at pos is suppressed by an
// `//xlinkvet:ignore` directive on the same or the preceding line.
func (p *Package) ignored(pos token.Position, rule string) bool {
	lines := p.ignores[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, r := range lines[line] {
			if r == "" || r == rule {
				return true
			}
		}
	}
	return false
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports are resolved by recursive
// loading, everything else through the compiler "source" importer (which
// type-checks the standard library from GOROOT source).
//
// LoadModule parses every package and type-checks dependency waves on
// GOMAXPROCS workers (token.FileSet is concurrency-safe; completed
// *types.Package values are immutable; the shared source importer is
// serialized behind stdMu). LoadDirAs and the recursive fallback loader
// stay sequential — they run for fixtures, after or instead of the
// parallel phase.
type Loader struct {
	Fset    *token.FileSet
	ModPath string
	ModDir  string

	mu      sync.Mutex          // guards pkgs
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard (sequential loads only)
	std     types.Importer
	stdMu   sync.Mutex // the source importer is not concurrency-safe
}

// NewLoader creates a loader rooted at the module containing dir (found by
// walking up to go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir := abs
	for {
		if _, err := os.Stat(filepath.Join(modDir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(modDir)
		if parent == modDir {
			return nil, fmt.Errorf("no go.mod found above %s", abs)
		}
		modDir = parent
	}
	data, err := os.ReadFile(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("no module directive in %s/go.mod", modDir)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModPath: modPath,
		ModDir:  modDir,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
		std:     importer.ForCompiler(fset, "source", nil),
	}, nil
}

func (l *Loader) stdImport(path string) (*types.Package, error) {
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}

func (l *Loader) getPkg(path string) *Package {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pkgs[path]
}

func (l *Loader) putPkg(pkg *Package) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pkgs[pkg.Path] = pkg
}

// LoadModule loads every package of the module (skipping testdata and
// hidden directories), returning them sorted by import path. Parsing runs
// fully parallel; type-checking runs in dependency waves, each wave's
// packages checked concurrently.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 1: parse every candidate directory in parallel.
	type parsed struct {
		pkg     *Package
		imports []string // module-internal imports
		err     error
	}
	results := make([]parsed, len(dirs))
	paths := make([]string, len(dirs))
	for i, dir := range dirs {
		rel, err := filepath.Rel(l.ModDir, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModPath
		if rel != "." {
			path = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		paths[i] = path
	}
	parallelDo(len(dirs), func(i int) {
		pkg, err := l.parseDir(dirs[i], paths[i])
		if err != nil {
			results[i] = parsed{err: err}
			return
		}
		results[i] = parsed{pkg: pkg, imports: moduleImports(l.ModPath, pkg)}
	})

	skeletons := map[string]*parsed{}
	var order []string
	for i := range results {
		r := &results[i]
		if r.err != nil {
			if _, empty := r.err.(errNoFiles); empty {
				continue
			}
			return nil, fmt.Errorf("%s: %w", paths[i], r.err)
		}
		skeletons[r.pkg.Path] = r
		order = append(order, r.pkg.Path)
	}
	sort.Strings(order)

	// Phase 2: type-check in dependency waves. A package is ready when
	// every module-internal import either has been checked already or is
	// outside the walked set (then the sequential fallback loads it up
	// front, so wave workers only ever read completed packages).
	done := map[string]bool{}
	remaining := len(skeletons)
	for remaining > 0 {
		var wave []string
		for _, path := range order {
			if done[path] {
				continue
			}
			ready := true
			for _, imp := range skeletons[path].imports {
				if _, inSet := skeletons[imp]; inSet && !done[imp] {
					ready = false
					break
				}
			}
			if ready {
				wave = append(wave, path)
			}
		}
		if len(wave) == 0 {
			// Import cycle among the remaining packages: fall through to
			// the sequential loader, which reports the cycle precisely.
			for _, path := range order {
				if !done[path] {
					if _, err := l.load(path); err != nil {
						return nil, fmt.Errorf("%s: %w", path, err)
					}
				}
			}
			break
		}
		// Pre-load out-of-set module imports sequentially so concurrent
		// wave workers never race on the fallback loader.
		for _, path := range wave {
			for _, imp := range skeletons[path].imports {
				if _, inSet := skeletons[imp]; !inSet && l.getPkg(imp) == nil {
					if _, err := l.load(imp); err != nil {
						return nil, fmt.Errorf("%s: %w", imp, err)
					}
				}
			}
		}
		waveErrs := make([]error, len(wave))
		parallelDo(len(wave), func(i int) {
			pkg := skeletons[wave[i]].pkg
			l.typeCheck(pkg, func(imp string) (*types.Package, error) {
				dep := l.getPkg(imp)
				if dep == nil {
					return nil, fmt.Errorf("dependency %s not yet loaded", imp)
				}
				return dep.TypesPkg, nil
			})
			l.putPkg(pkg)
			waveErrs[i] = nil
		})
		for _, err := range waveErrs {
			if err != nil {
				return nil, err
			}
		}
		for _, path := range wave {
			done[path] = true
			remaining--
		}
	}

	var out []*Package
	for _, path := range order {
		if pkg := l.getPkg(path); pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// moduleImports lists pkg's imports that live inside the module.
func moduleImports(modPath string, pkg *Package) []string {
	seen := map[string]bool{}
	var out []string
	for _, file := range pkg.Files {
		for _, spec := range file.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if (imp == modPath || strings.HasPrefix(imp, modPath+"/")) && !seen[imp] {
				seen[imp] = true
				out = append(out, imp)
			}
		}
	}
	sort.Strings(out)
	return out
}

// LoadDirAs parses and type-checks a single directory (e.g. a testdata
// fixture) under a caller-chosen import path. Module-internal imports in the
// fixture resolve against the loader's module.
func (l *Loader) LoadDirAs(dir, asPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.check(abs, asPath)
}

// LoadFixture type-checks rule's violation fixture, testdata/fixtures/<rule>,
// under the import path fixture/<rule>, and returns it with the config that
// applies every rule to it.
func (l *Loader) LoadFixture(rule string) (*Config, *Package, error) {
	dir := filepath.Join(l.ModDir, "internal", "vet", "testdata", "fixtures", rule)
	asPath := "fixture/" + rule
	pkg, err := l.LoadDirAs(dir, asPath)
	if err != nil {
		return nil, nil, err
	}
	return FixtureConfig(l.ModPath, asPath), pkg, nil
}

type errNoFiles struct{ dir string }

func (e errNoFiles) Error() string { return "no buildable Go files in " + e.dir }

// load returns the package for a module-internal import path, loading it on
// first use. Sequential: used for fixtures and as the fallback when the
// parallel wave scheduler cannot make progress.
func (l *Loader) load(path string) (*Package, error) {
	if pkg := l.getPkg(path); pkg != nil {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(path, l.ModPath)
	dir := filepath.Join(l.ModDir, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	pkg, err := l.check(dir, path)
	if err != nil {
		return nil, err
	}
	l.putPkg(pkg)
	return pkg, nil
}

// check parses the buildable files of dir and type-checks them as path
// (sequential path: module-internal imports load recursively).
func (l *Loader) check(dir, path string) (*Package, error) {
	pkg, err := l.parseDir(dir, path)
	if err != nil {
		return nil, err
	}
	l.typeCheck(pkg, func(imp string) (*types.Package, error) {
		dep, err := l.load(imp)
		if err != nil {
			return nil, err
		}
		return dep.TypesPkg, nil
	})
	return pkg, nil
}

// parseDir parses the buildable non-test files of dir.
func (l *Loader) parseDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		Path: path, Dir: dir, Fset: l.Fset,
		ignores: map[string]map[int][]string{},
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		fpath := filepath.Join(dir, name)
		file, err := parser.ParseFile(l.Fset, fpath, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !buildableDefault(file) {
			continue
		}
		pkg.Files = append(pkg.Files, file)
		pkg.ignores[fpath] = collectIgnores(l.Fset, file)
	}
	if len(pkg.Files) == 0 {
		return nil, errNoFiles{dir}
	}
	return pkg, nil
}

// typeCheck type-checks an already-parsed package; resolveModule maps
// module-internal import paths to their *types.Package.
func (l *Loader) typeCheck(pkg *Package, resolveModule func(string) (*types.Package, error)) {
	conf := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if imp == l.ModPath || strings.HasPrefix(imp, l.ModPath+"/") {
				return resolveModule(imp)
			}
			return l.stdImport(imp)
		}),
		Error: func(err error) { pkg.TypeErrs = append(pkg.TypeErrs, err) },
	}
	pkg.Info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	// Check returns a usable (if incomplete) package even when soft errors
	// were reported; rules degrade to syntactic matching where Info is
	// missing entries.
	pkg.TypesPkg, _ = conf.Check(pkg.Path, l.Fset, pkg.Files, pkg.Info)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// buildableDefault evaluates a file's //go:build constraint for the default
// build of this platform: GOOS/GOARCH/gc/go1.x tags are true, custom tags
// (notably xlinkdebug) are false.
func buildableDefault(file *ast.File) bool {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH ||
					tag == "gc" || strings.HasPrefix(tag, "go1")
			})
		}
	}
	return true
}

// collectIgnores extracts //xlinkvet:ignore directives: line -> rule names
// ("" meaning all rules).
func collectIgnores(fset *token.FileSet, file *ast.File) map[int][]string {
	out := map[int][]string{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, "xlinkvet:ignore")
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				out[line] = append(out[line], "")
				continue
			}
			for _, r := range strings.Split(fields[0], ",") {
				out[line] = append(out[line], strings.TrimSpace(r))
			}
		}
	}
	return out
}
