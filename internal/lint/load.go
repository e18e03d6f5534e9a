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
)

// The loader. detlint cannot assume golang.org/x/tools is vendored (the
// module has no third-party dependencies and builds offline), so it loads
// packages with the standard library only, the way `go vet` loads a unit:
//
//   - one `go list -e -export -deps -test -json` lists every package the
//     patterns reach, test variants included, and compiles each into the
//     build cache, so a compile error anywhere is a load error;
//   - an analyzed package is type-checked from source exactly once: the
//     files of its `P [P.test]` listing (of `P` when it has no in-package
//     tests), then its `P_test [P.test]` external tests, into one Info;
//   - every import of a unit is read from compiler export data, resolved
//     through the unit's ImportMap to the listed Export file, so a test
//     variant's types are the ones `go test` compiles against.
//
// The result mirrors the relevant subset of golang.org/x/tools/go/
// packages: one Package per analyzed package, carrying the fileset,
// syntax, *types.Package and *types.Info the analyzers need.

// Package is one type-checked module package presented to analyzers.
type Package struct {
	// Path is the import path ("cbar/internal/router").
	Path string
	// Fset positions every file of every package of this load.
	Fset *token.FileSet
	// Syntax holds the parsed files: GoFiles, TestGoFiles, XTestGoFiles.
	Syntax []*ast.File
	// Types and Info are the type-checking results over Syntax.
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	ForTest    string
	// DepOnly marks a package listed only as a dependency of the patterns.
	DepOnly  bool
	GoFiles  []string
	CgoFiles []string
	// ImportMap maps an import path in the source to the package it
	// resolves to when that differs: in a test build, a module package
	// that depends on the package under test is recompiled against its
	// with-tests incarnation ("cbar/internal/sim [cbar/internal/router.test]").
	ImportMap map[string]string
	Error     *struct{ Err string }
}

// Load lists, parses and type-checks the packages matched by patterns,
// resolved relative to dir (the module root). It returns one Package per
// module package, test files included, sorted by import path.
func Load(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, nil, patterns)
}

// load is Load restricted to the matched packages keep accepts (all of
// them when keep is nil); the rest are still compiled by go list.
func load(dir string, keep func(path string) bool, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	var roots []string
	for path, lp := range listed {
		if lp.DepOnly || lp.ForTest != "" || strings.HasSuffix(path, ".test") || (keep != nil && !keep(path)) {
			continue
		}
		roots = append(roots, path)
	}
	sort.Strings(roots)

	fset := token.NewFileSet()
	pkgs := make([]*Package, 0, len(roots))
	for _, path := range roots {
		unit := listed[path+" ["+path+".test]"]
		if unit == nil {
			unit = listed[path]
		}
		info := newInfo()
		files, tp, err := checkUnit(fset, listed, unit, path, info)
		if err != nil {
			return nil, err
		}
		if xunit := listed[path+"_test ["+path+".test]"]; xunit != nil {
			xfiles, _, err := checkUnit(fset, listed, xunit, path+"_test", info)
			if err != nil {
				return nil, err
			}
			files = append(files, xfiles...)
		}
		pkgs = append(pkgs, &Package{Path: path, Fset: fset, Syntax: files, Types: tp, Info: info})
	}
	return pkgs, nil
}

// goList runs `go list -e -export -deps -test -json <patterns>` in dir
// and returns the listings by ImportPath. A package that failed to list
// or compile is an error.
func goList(dir string, patterns []string) (map[string]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-deps", "-test", "-json"}, patterns...)...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	listed := make(map[string]*listedPackage)
	for dec := json.NewDecoder(&out); ; {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			return listed, nil
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: go list: %s", lp.Error.Err)
		}
		listed[lp.ImportPath] = lp
	}
}

// checkUnit parses unit's files and type-checks them as package path
// into info. Every import is read from the export data go list built for
// the package the unit's ImportMap sends it to.
func checkUnit(fset *token.FileSet, listed map[string]*listedPackage, unit *listedPackage, path string, info *types.Info) ([]*ast.File, *types.Package, error) {
	if len(unit.CgoFiles) > 0 {
		return nil, nil, fmt.Errorf("lint: %s uses cgo, unsupported", path)
	}
	files := make([]*ast.File, 0, len(unit.GoFiles))
	for _, name := range unit.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(unit.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	lookup := func(imp string) (io.ReadCloser, error) {
		if mapped, ok := unit.ImportMap[imp]; ok {
			imp = mapped
		}
		lp := listed[imp]
		if lp == nil || lp.Export == "" {
			return nil, fmt.Errorf("lint: no export data for %q", imp)
		}
		return os.Open(lp.Export)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	tp, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	return files, tp, nil
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
