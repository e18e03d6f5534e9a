package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// counts are the size numbers the roadmap's design aim tracks from one
// change to the next (down is good). Every rule reads non-test Go files
// only (no _test.go file, nothing under a testdata directory) and skips
// hidden directories.
type counts struct {
	// internalLines and benchmarkLines are the lines of the files
	// under internal/ and under benchmark/.
	internalLines, benchmarkLines int
	// settable is the exported fields of the configuration types: the
	// structs named Budget or ending in Config or Options, outside
	// internal/lint and benchmark/.
	settable int
	// flags is the flags the commands register (cliFlags).
	flags int
	// lintRows is lint.DefaultConfig's registry rows (lintRows).
	lintRows int
	// annotations is the lines anywhere in the module that begin with a
	// //lint: directive.
	annotations int
}

// print writes the counts one to a line.
func (c counts) print(w io.Writer) {
	for _, row := range []struct {
		name string
		n    int
	}{
		{"internal/ non-test lines", c.internalLines},
		{"benchmark/ non-test lines", c.benchmarkLines},
		{"settable values", c.settable},
		{"CLI flags", c.flags},
		{"lint.DefaultConfig rows", c.lintRows},
		{"//lint: annotations", c.annotations},
	} {
		fmt.Fprintf(w, "%-26s %d\n", row.name, row.n)
	}
}

// countRepo computes the counts of the repository at root.
func countRepo(root string) (counts, error) {
	var c counts
	err := walkGo(root, func(rel string, src []byte) error {
		lines := bytes.Count(src, []byte("\n"))
		switch {
		case strings.HasPrefix(rel, "internal/"):
			c.internalLines += lines
		case strings.HasPrefix(rel, "benchmark/"):
			c.benchmarkLines += lines
		}
		for _, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//lint:") {
				c.annotations++
			}
		}
		if strings.HasPrefix(rel, "internal/lint/") || strings.HasPrefix(rel, "benchmark/") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), rel, src, 0)
		if err != nil {
			return err
		}
		c.settable += settableFields(file)
		return nil
	})
	if err != nil {
		return c, err
	}
	flags, err := cliFlags(root)
	if err != nil {
		return c, err
	}
	c.flags = len(flags)
	fset := token.NewFileSet()
	files, err := parseDir(fset, filepath.Join(root, "internal", "lint"))
	if err != nil {
		return c, err
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "DefaultConfig" {
				c.lintRows = lintRows(fn.Body)
			}
		}
	}
	return c, nil
}

// walkGo calls visit with the slash-separated path (relative to root)
// and contents of every non-test Go file under root.
func walkGo(root string, visit func(rel string, src []byte) error) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		return visit(filepath.ToSlash(rel), src)
	})
}

// settableFields counts the exported fields of file's configuration
// structs.
func settableFields(file *ast.File) int {
	n := 0
	for _, decl := range file.Decls {
		d, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range d.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			name := ts.Name.Name
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !(name == "Budget" || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			for _, f := range st.Fields.List {
				for _, id := range f.Names {
					if id.IsExported() {
						n++
					}
				}
			}
		}
	}
	return n
}

// lintRows counts the registry rows in DefaultConfig's body: the
// elements of every slice or map literal that no other one holds (a
// field rule's writers and a barrier function's callers belong to its
// row), plus what an append adds to one.
func lintRows(body *ast.BlockStmt) int {
	rows := 0
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			switch x.Type.(type) {
			case *ast.ArrayType, *ast.MapType:
				rows += len(x.Elts)
				return false
			}
		case *ast.CallExpr:
			if fn, ok := x.Fun.(*ast.Ident); ok && fn.Name == "append" {
				rows += len(x.Args) - 1
			}
		}
		return true
	})
	return rows
}
