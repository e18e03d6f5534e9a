// docscheck gates the documentation surface. It fails (exit 1) when
//
//   - an exported identifier of the public cbar package — top-level
//     type, function, method, const, var, exported struct field or
//     interface method — has no doc comment, or
//   - an exported field of an internal/... struct that the public
//     package re-exports through a type alias has none (the alias is the
//     public name, so its fields are public surface too), or
//   - a CLI flag registered in any non-test Go file under cmd/*/ does
//     not appear (backtick-quoted, as `-name`) in README.md.
//
// Run from the repository root as `go run ./cmd/docscheck`; -root
// points it elsewhere. It is a hard CI gate: documentation drift is a
// build break, like a detlint finding.
//
// With -counts it checks nothing and prints the repository's tracked
// size counts instead (see counts.go).
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root (the public package's directory)")
	showCounts := flag.Bool("counts", false, "print the tracked size counts and check nothing")
	flag.Parse()

	if *showCounts {
		c, err := countRepo(*root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(1)
		}
		c.print(os.Stdout)
		return
	}

	var findings []string
	findings = append(findings, checkPackageDocs(*root)...)
	findings = append(findings, checkREADMEFlags(*root)...)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// checkPackageDocs parses the public package in root (non-test files
// only) and checks it with checkDocs, resolving aliases into the
// module's internal packages on disk.
func checkPackageDocs(root string) []string {
	fset := token.NewFileSet()
	files, err := parseDir(fset, root)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	var prefix string
	for _, line := range strings.Split(string(gomod), "\n") {
		if module, ok := strings.CutPrefix(line, "module "); ok {
			prefix = strings.TrimSpace(module) + "/"
		}
	}
	return checkDocs(fset, files, func(importPath string) ([]*ast.File, error) {
		rel, ok := strings.CutPrefix(importPath, prefix)
		if !ok || !strings.HasPrefix(rel, "internal/") {
			return nil, nil
		}
		return parseDir(fset, filepath.Join(root, filepath.FromSlash(rel)))
	})
}

// parseDir parses the non-test Go files of one directory, with comments.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %v", dir, err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return files, nil
}

// checkDocs reports every exported identifier of the public package's
// files without a doc comment. A grouped const/var spec is covered by
// its block comment; a struct field or interface method accepts a
// trailing line comment. An exported alias `type T = pkg.U` is followed:
// load returns the files of the imported package (nil when it is not one
// of the module's internal packages), and U's fields are held to the
// same rule as a struct declared in place.
func checkDocs(fset *token.FileSet, files []*ast.File, load func(importPath string) ([]*ast.File, error)) []string {
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, file := range files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && exportedRecv(d) && d.Doc == nil {
					report(d.Pos(), funcKind(d), funcName(d))
				}
			case *ast.GenDecl:
				checkGenDecl(d, report)
				for _, spec := range d.Specs {
					if s, ok := spec.(*ast.TypeSpec); ok && s.Assign.IsValid() && s.Name.IsExported() {
						if err := checkAliasTarget(file, s, load, report); err != nil {
							p := fset.Position(s.Pos())
							out = append(out, fmt.Sprintf("%s:%d: alias %s: %v", p.Filename, p.Line, s.Name.Name, err))
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// checkAliasTarget resolves `type T = pkg.U` through file's imports and,
// when U is a struct of one of the module's internal packages, checks
// its exported fields, reported as T's.
func checkAliasTarget(file *ast.File, s *ast.TypeSpec, load func(string) ([]*ast.File, error), report func(token.Pos, string, string)) error {
	sel, ok := s.Type.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	pkgName, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	var importPath string
	for _, imp := range file.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == pkgName.Name {
			importPath = path
		}
	}
	target, err := load(importPath)
	if err != nil || target == nil {
		return err
	}
	for _, f := range target {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != sel.Sel.Name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					checkFieldList(s.Name.Name+" (= "+pkgName.Name+"."+ts.Name.Name+")", "field", st.Fields, report)
				}
				return nil
			}
		}
	}
	return fmt.Errorf("%s declares no type %s", importPath, sel.Sel.Name)
}

// exportedRecv reports whether a function is free-standing or a method
// on an exported receiver type; methods on unexported types are not
// part of the documented surface.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	return ast.IsExported(recvTypeName(d.Recv.List[0].Type))
}

func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	}
	return ""
}

func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv != nil && len(d.Recv.List) > 0 {
		return recvTypeName(d.Recv.List[0].Type) + "." + d.Name.Name
	}
	return d.Name.Name
}

func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if d.Doc == nil && s.Doc == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
			switch t := s.Type.(type) {
			case *ast.StructType:
				checkFieldList(s.Name.Name, "field", t.Fields, report)
			case *ast.InterfaceType:
				checkFieldList(s.Name.Name, "interface method", t.Methods, report)
			}
		case *ast.ValueSpec:
			// A doc comment on the const/var block covers the whole
			// group (the idiomatic enum shape); otherwise each exported
			// name needs its own.
			if d.Doc != nil || s.Doc != nil || s.Comment != nil {
				continue
			}
			kind := "var"
			if d.Tok == token.CONST {
				kind = "const"
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), kind, name.Name)
				}
			}
		}
	}
}

func checkFieldList(owner, kind string, fields *ast.FieldList, report func(token.Pos, string, string)) {
	if fields == nil {
		return
	}
	for _, f := range fields.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		for _, name := range f.Names {
			if name.IsExported() {
				report(name.Pos(), kind, owner+"."+name.Name)
			}
		}
	}
}

// checkREADMEFlags collects every flag name the commands register
// (cliFlags) and reports the ones README.md does not mention as `-name`.
func checkREADMEFlags(root string) []string {
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	flags, err := cliFlags(root)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	var out []string
	for _, f := range flags {
		if filepath.Base(filepath.Dir(f.path)) == "docscheck" {
			continue // checks itself otherwise; its flags are not user surface
		}
		if !strings.Contains(string(readme), "`-"+f.name+"`") {
			out = append(out, fmt.Sprintf("%s: flag -%s is not documented in README.md (expected `-%s`)", f.path, f.name, f.name))
		}
	}
	return out
}

// cliFlag is one flag a command registers.
type cliFlag struct{ path, name string }

// cliFlags returns the flags registered in the non-test Go files of
// every cmd/*/ directory, by file, then by name.
func cliFlags(root string) ([]cliFlag, error) {
	dirs, err := filepath.Glob(filepath.Join(root, "cmd", "*"))
	if err != nil {
		return nil, err
	}
	var out []cliFlag
	for _, dir := range dirs {
		fset := token.NewFileSet()
		files, err := parseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		sets := map[string]bool{} // a flag set declared in one file may register in another
		for _, f := range files {
			flagSets(f, sets)
		}
		for _, f := range files {
			for _, name := range flagNames(f, sets) {
				out = append(out, cliFlag{fset.Position(f.Package).Filename, name})
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no flags registered under %s", filepath.Join(root, "cmd"))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out, nil
}

// flagNames returns the names registered in one file through the flag
// package or a flag set: the first string argument of Bool/Int/String/...
// and the second of the *Var forms, called on flag or on a variable or
// field named in sets.
func flagNames(file *ast.File, sets map[string]bool) []string {
	var names []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch recv := sel.X.(type) {
		case *ast.Ident: // flag.X, fs.X
			if recv.Name != "flag" && !sets[recv.Name] {
				return true
			}
		case *ast.SelectorExpr: // c.fs.X, for a field fs
			if !sets[recv.Sel.Name] {
				return true
			}
		default:
			return true
		}
		arg := -1
		switch sel.Sel.Name {
		case "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration", "Func", "TextVar":
			arg = 0
		case "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "StringVar", "Float64Var", "DurationVar", "Var":
			arg = 1
		}
		if arg < 0 || len(call.Args) <= arg {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names = append(names, name)
			}
		}
		return true
	})
	sort.Strings(names)
	return names
}

// flagSets adds to sets the names file declares *flag.FlagSet
// (variables, parameters, results and fields) or assigns from
// flag.NewFlagSet.
func flagSets(file *ast.File, sets map[string]bool) {
	isFlag := func(e ast.Expr, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "flag" && sel.Sel.Name == name
	}
	isSetType := func(e ast.Expr) bool {
		star, ok := e.(*ast.StarExpr)
		return ok && isFlag(star.X, "FlagSet")
	}
	isNewFlagSet := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		return ok && isFlag(call.Fun, "NewFlagSet")
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Field:
			if isSetType(x.Type) {
				for _, id := range x.Names {
					sets[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			for i, id := range x.Names {
				if isSetType(x.Type) || (i < len(x.Values) && isNewFlagSet(x.Values[i])) {
					sets[id.Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && i < len(x.Rhs) && isNewFlagSet(x.Rhs[i]) {
					sets[id.Name] = true
				}
			}
		}
		return true
	})
}
