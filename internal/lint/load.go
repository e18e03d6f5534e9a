package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The loader. detlint cannot assume golang.org/x/tools is vendored (the
// module has no third-party dependencies and builds offline), so package
// loading is done with the standard library only:
//
//   - `go list -test -export -deps -json` enumerates every package the
//     requested patterns reach, including test-only dependencies, and —
//     thanks to -export — the compiler export-data file of each standard
//     library package (built into the local build cache, no network).
//   - Standard-library imports are resolved through go/importer's "gc"
//     importer reading those export files.
//   - Module-local packages are parsed and type-checked from source, so
//     the analyzers see full syntax plus go/types information for every
//     package in this repository, test files included.
//
// The result mirrors the relevant subset of golang.org/x/tools/go/
// packages: one Package per module package, carrying the fileset, syntax,
// *types.Package and *types.Info the analyzers need.

// Package is one type-checked module package presented to analyzers.
type Package struct {
	// Path is the import path ("cbar/internal/router").
	Path string
	// Fset positions every file of every package of this load.
	Fset *token.FileSet
	// Syntax holds the parsed files: GoFiles then TestGoFiles.
	Syntax []*ast.File
	// Types and Info are the type-checking results over Syntax.
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Standard     bool
	Export       string
	ForTest      string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	// ImportMap maps an import path in the source to the package it
	// resolves to when that differs: in a test build, a module package
	// that depends on the package under test is recompiled against its
	// with-tests incarnation ("cbar/internal/sim [cbar/internal/router.test]").
	ImportMap map[string]string
	Error     *struct{ Err string }
}

// loader resolves imports for one Load call.
type loader struct {
	dir  string
	fset *token.FileSet

	mu     sync.Mutex
	listed map[string]*listedPackage
	// bare caches module packages type-checked WITHOUT their test files —
	// the form other packages import (test files may create import cycles
	// that non-test compilation units cannot, so imports never see them) —
	// keyed by go list's ImportPath, so a test variant is its own entry.
	bare    map[string]*types.Package
	loading map[string]bool
	gc      types.Importer
}

// Load lists, parses and type-checks the packages matched by patterns,
// resolved relative to dir (the module root). It returns one Package per
// module package, test files included, sorted by import path.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// inPatterns compares dir with go list's absolute directories.
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	ld := newLoader(dir)
	if err := ld.list(append([]string{"-test"}, patterns...)); err != nil {
		return nil, err
	}

	var roots []string
	for path, lp := range ld.listed {
		if lp.Standard || lp.ForTest != "" || strings.HasSuffix(path, ".test") {
			continue
		}
		if !ld.inPatterns(lp, patterns) {
			continue
		}
		roots = append(roots, path)
	}
	sort.Strings(roots)

	pkgs := make([]*Package, 0, len(roots))
	for _, path := range roots {
		p, err := ld.loadFull(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// newLoader returns a loader rooted at the module directory dir.
func newLoader(dir string) *loader {
	ld := &loader{
		dir:     dir,
		fset:    token.NewFileSet(),
		listed:  make(map[string]*listedPackage),
		bare:    make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
	ld.gc = importer.ForCompiler(ld.fset, "gc", ld.lookupExport)
	return ld
}

// newInfo returns an empty types.Info recording everything the analyzers
// read.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// inPatterns reports whether lp was matched by the requested patterns
// (rather than pulled in as a dependency). `go list -deps` marks
// dependency-only entries with DepOnly, but keeping the loader's JSON
// surface minimal, the test is recomputed here: a "..." pattern matches
// by directory prefix, other patterns by exact path.
func (ld *loader) inPatterns(lp *listedPackage, patterns []string) bool {
	rel, err := filepath.Rel(ld.dir, lp.Dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return false
	}
	rel = filepath.ToSlash(rel)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." {
			return true
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == sub || strings.HasPrefix(rel, sub+"/") ||
				lp.ImportPath == sub || strings.HasPrefix(lp.ImportPath, sub+"/") {
				return true
			}
			continue
		}
		if rel == pat || (pat == "." && rel == ".") || lp.ImportPath == pat {
			return true
		}
	}
	return false
}

// list runs `go list -export -deps -json <args>` and merges the result
// into ld.listed.
func (ld *loader) list(args []string) error {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-deps", "-json"}, args...)...)
	cmd.Dir = ld.dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	dec := json.NewDecoder(&out)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return fmt.Errorf("lint: go list: %s", lp.Error.Err)
		}
		if _, ok := ld.listed[lp.ImportPath]; !ok {
			cp := lp
			ld.listed[lp.ImportPath] = &cp
		}
	}
	return nil
}

// lookedUp returns the listing for path, lazily go-listing it when the
// initial pattern closure did not reach it (a fixture importing a
// standard-library package the module itself never uses).
func (ld *loader) lookedUp(path string) (*listedPackage, error) {
	ld.mu.Lock()
	lp := ld.listed[path]
	ld.mu.Unlock()
	if lp != nil {
		return lp, nil
	}
	if err := ld.list([]string{path}); err != nil {
		return nil, err
	}
	ld.mu.Lock()
	lp = ld.listed[path]
	ld.mu.Unlock()
	if lp == nil {
		return nil, fmt.Errorf("lint: package %q not found", path)
	}
	return lp, nil
}

// lookupExport opens the compiler export data of a (standard library)
// package for the gc importer.
func (ld *loader) lookupExport(path string) (io.ReadCloser, error) {
	lp, err := ld.lookedUp(path)
	if err != nil {
		return nil, err
	}
	if lp.Export == "" {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(lp.Export)
}

// Import implements types.Importer: module-local packages are
// type-checked from source (without test files), everything else through
// compiler export data.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	lp, err := ld.lookedUp(path)
	if err != nil {
		return nil, err
	}
	if lp.Standard {
		return ld.gc.Import(path)
	}
	return ld.loadBare(lp, ld)
}

// loadBare type-checks a module package from its non-test sources,
// resolving its imports through imp, memoized. Import cycles cannot occur
// among non-test compilation units (the go tool rejects them), but the
// guard turns any future surprise into an error instead of a hang.
func (ld *loader) loadBare(lp *listedPackage, imp types.Importer) (*types.Package, error) {
	ld.mu.Lock()
	if p, ok := ld.bare[lp.ImportPath]; ok {
		ld.mu.Unlock()
		return p, nil
	}
	if ld.loading[lp.ImportPath] {
		ld.mu.Unlock()
		return nil, fmt.Errorf("lint: import cycle through %q", lp.ImportPath)
	}
	ld.loading[lp.ImportPath] = true
	ld.mu.Unlock()

	files, err := ld.parseFiles(lp.Dir, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	path, _, _ := strings.Cut(lp.ImportPath, " ") // a test variant's source path
	conf := types.Config{Importer: imp}
	p, err := conf.Check(path, ld.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
	}
	ld.mu.Lock()
	ld.bare[lp.ImportPath] = p
	delete(ld.loading, lp.ImportPath)
	ld.mu.Unlock()
	return p, nil
}

// loadFull type-checks a module package including its in-package test
// files, producing the Package analyzers run over.
func (ld *loader) loadFull(path string) (*Package, error) {
	lp, err := ld.lookedUp(path)
	if err != nil {
		return nil, err
	}
	if len(lp.CgoFiles) > 0 {
		return nil, fmt.Errorf("lint: %s uses cgo, unsupported", path)
	}
	files, err := ld.parseFiles(lp.Dir, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	testFiles, err := ld.parseFiles(lp.Dir, lp.TestGoFiles)
	if err != nil {
		return nil, err
	}
	files = append(files, testFiles...)

	info := newInfo()
	conf := types.Config{Importer: ld}
	tp, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s (with tests): %v", path, err)
	}

	// External (_test-package) test files form a separate compilation
	// unit importing the package under test, type-checked against the
	// with-tests package so export_test.go helpers resolve — directly or
	// through a module package that depends on it (testImporter). Their
	// results land in the same Info, and the files join the same Package
	// record: the analyzers treat them as test files of the package under
	// test.
	if len(lp.XTestGoFiles) > 0 {
		xfiles, err := ld.parseFiles(lp.Dir, lp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		xlp, err := ld.lookedUp(path + "_test [" + path + ".test]")
		if err != nil {
			return nil, err
		}
		xconf := types.Config{Importer: &testImporter{ld: ld, imports: xlp.ImportMap, under: path, pkg: tp}}
		if _, err := xconf.Check(path+"_test", ld.fset, xfiles, info); err != nil {
			return nil, fmt.Errorf("lint: type-checking %s_test: %v", path, err)
		}
		files = append(files, xfiles...)
	}
	return &Package{Path: path, Fset: ld.fset, Syntax: files, Types: tp, Info: info}, nil
}

// testImporter resolves the imports of an external test package, or of
// a module package recompiled for it, the way the go tool builds the test
// binary: the package under test is its with-tests incarnation, a package
// the importer's ImportMap sends to a test variant is that variant,
// type-checked from its own files against the same incarnation (so a
// value it returns has the with-tests type, export_test.go methods
// included), and everything else is the regular import.
type testImporter struct {
	ld      *loader
	imports map[string]string // the importing package's ImportMap
	under   string            // the import path of the package under test
	pkg     *types.Package    // its with-tests incarnation
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if path == ti.under {
		return ti.pkg, nil
	}
	variant, ok := ti.imports[path]
	if !ok {
		return ti.ld.Import(path)
	}
	lp, err := ti.ld.lookedUp(variant)
	if err != nil {
		return nil, err
	}
	return ti.ld.loadBare(lp, &testImporter{ld: ti.ld, imports: lp.ImportMap, under: ti.under, pkg: ti.pkg})
}

func (ld *loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadFixture parses and type-checks a single fixture directory as one
// package (path = "fixture/<dirname>"), resolving its imports through a
// fresh loader rooted at moduleDir. The fixture harness (see
// harness_test.go) runs analyzers over the result.
func LoadFixture(moduleDir, fixtureDir string) (*Package, error) {
	entries, err := os.ReadDir(fixtureDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", fixtureDir)
	}
	ld := newLoader(moduleDir)
	files, err := ld.parseFiles(fixtureDir, names)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	path := "fixture/" + filepath.Base(fixtureDir)
	conf := types.Config{Importer: ld}
	tp, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking fixture %s: %v", fixtureDir, err)
	}
	return &Package{Path: path, Fset: ld.fset, Syntax: files, Types: tp, Info: info}, nil
}
