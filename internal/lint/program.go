package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// The whole-program layer. The per-package analyzers (lint.go) see one
// package at a time; allocfree follows calls from sim's driver into
// router's phases and through router.Algorithm into routing's hooks.
// Program is the substrate: every module package of one Load, a
// funcKey-indexed declaration table, the call graph over it and the
// parameters that do not escape, built once per detlint invocation.

// FuncInfo is one analyzable function body: a declared function or
// method.
type FuncInfo struct {
	Pkg  *Package
	File *ast.File
	Decl *ast.FuncDecl
}

// Program is the cross-package view allocfree walks.
type Program struct {
	Fset *token.FileSet
	Cfg  *Config
	Pkgs []*Package

	// Funcs maps funcKey → declaration info for every function declared
	// in a loaded module package (test files excluded: tests run
	// single-goroutine and poke state by design).
	Funcs map[string]*FuncInfo

	// Calls is the call graph: caller funcKey → callee funcKeys.
	// Calls inside function literals attribute to the enclosing
	// declaration (a closure a function builds is work that function
	// causes). A call through an interface method is an edge to that
	// method on every implementation (methodSets).
	Calls map[string][]string

	// stays holds the parameters that do not escape their function
	// (paramsStay): a function literal passed there stays on the stack.
	stays map[param]bool
}

// param names a declared function's parameter by funcKey and index.
type param struct {
	fn string
	i  int
}

// NewProgram indexes the packages of one Load and builds the call graph.
func NewProgram(pkgs []*Package, cfg *Config) *Program {
	prog := &Program{
		Cfg:   cfg,
		Pkgs:  pkgs,
		Funcs: make(map[string]*FuncInfo),
		Calls: make(map[string][]string),
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	sets := prog.methodSets()
	for _, pkg := range pkgs {
		for i, f := range pkg.Syntax {
			if pkg.TestFile[i] {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := declKey(pkg.Info, fd)
				if _, dup := prog.Funcs[key]; !dup {
					prog.Funcs[key] = &FuncInfo{Pkg: pkg, File: f, Decl: fd}
				}
				prog.indexBody(pkg, key, fd.Body, sets)
			}
		}
	}
	prog.stays = prog.paramsStay()
	return prog
}

// methodSets returns the pointer method set (name → funcKey of the
// declaring method, so a promoted method resolves to its embedded
// type's) of every named non-interface type declared in a non-test file
// of a deterministic package: the candidates an interface call reaches.
func (p *Program) methodSets() []map[string]string {
	var sets []map[string]string
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) || !p.Cfg.IsDeterministic(pkg.Path) ||
				strings.HasSuffix(p.Fset.Position(tn.Pos()).Filename, "_test.go") {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			set := make(map[string]string, ms.Len())
			for k := range ms.Len() {
				set[ms.At(k).Obj().Name()] = funcKey(ms.At(k).Obj().(*types.Func))
			}
			sets = append(sets, set)
		}
	}
	return sets
}

// indexBody records the call edges of one function body under owner.
// An interface method's edges go to that method of every type in sets
// whose method names include all of the interface's: matched by name,
// not types.Implements, because each package is type-checked on its own
// and sees its own copy of an imported interface. Name matching
// over-approximates, the safe side for a reachability check.
func (p *Program) indexBody(pkg *Package, owner string, body ast.Node, sets []map[string]string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg.Info, call)
		if fn == nil {
			return true
		}
		iface := ifaceOf(fn)
		if iface == nil {
			p.Calls[owner] = append(p.Calls[owner], funcKey(fn))
			return true
		}
	sets:
		for _, set := range sets {
			for k := range iface.NumMethods() {
				if set[iface.Method(k).Name()] == "" {
					continue sets
				}
			}
			p.Calls[owner] = append(p.Calls[owner], set[fn.Name()])
		}
		return true
	})
}

// ifaceOf returns the interface fn is a method of, or nil when fn has a
// body.
func ifaceOf(fn *types.Func) *types.Interface {
	if recv := fn.Signature().Recv(); recv != nil {
		it, _ := recv.Type().Underlying().(*types.Interface)
		return it
	}
	return nil
}

// paramsStay computes which func-typed parameters of Funcs do not
// escape: the greatest fixpoint of stackOnly — every one starts out
// staying, and one whose body escapes it drops, until none does.
func (p *Program) paramsStay() map[param]bool {
	stays := make(map[param]bool)
	for changed, first := true, true; changed; first = false {
		changed = first
		for key, fi := range p.Funcs {
			fn, _ := fi.Pkg.Info.Defs[fi.Decl.Name].(*types.Func)
			for i := range fn.Signature().Params().Len() {
				v := fn.Signature().Params().At(i)
				if _, isFunc := v.Type().Underlying().(*types.Signature); !isFunc {
					continue
				}
				pr := param{key, i}
				if first {
					stays[pr] = true
				} else if stays[pr] && !stackOnly(fi.Pkg.Info, fi.Decl.Body, v, stays) {
					stays[pr], changed = false, true
				}
			}
		}
	}
	return stays
}

// stackOnly reports whether every use of obj in body is one stackUses
// keeps.
func stackOnly(info *types.Info, body ast.Node, obj types.Object, stays map[param]bool) bool {
	uses := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			uses++
		}
		return true
	})
	stackUses(info, body, stays, func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && info.Uses[id] == obj {
			uses--
		}
	})
	return uses == 0
}

// stackUses calls keep with every expression of body whose position
// keeps a func value on the stack: called, or passed to a parameter in
// stays, outside a go or defer statement, or compared with nil. It
// does not enter function literals: a use there may outlive the call.
func stackUses(info *types.Info, body ast.Node, stays map[param]bool, keep func(ast.Expr)) {
	spawned := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			spawned[x.Call] = true
		case *ast.DeferStmt:
			spawned[x.Call] = true
		case *ast.CallExpr:
			if spawned[x] {
				break // the goroutine or deferred call may outlive the frame
			}
			keep(ast.Unparen(x.Fun))
			for k, arg := range x.Args {
				if pr, ok := argParam(info, x, k); ok && stays[pr] {
					keep(ast.Unparen(arg))
				}
			}
		case *ast.BinaryExpr:
			if isNil(info, x.Y) {
				keep(ast.Unparen(x.X))
			} else if isNil(info, x.X) {
				keep(ast.Unparen(x.Y))
			}
		}
		_, lit := n.(*ast.FuncLit)
		return !lit
	})
}

// argParam names the parameter a call's k-th argument binds to when the
// callee is a declared function or a concrete method; ok=false for an
// interface method, a func value, a method expression and a variadic
// argument.
func argParam(info *types.Info, call *ast.CallExpr, k int) (param, bool) {
	fn := calleeFunc(info, call)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); fn == nil || ifaceOf(fn) != nil ||
		ok && info.Selections[sel] != nil && info.Selections[sel].Kind() == types.MethodExpr ||
		fn.Signature().Variadic() && k >= fn.Signature().Params().Len()-1 {
		return param{}, false
	}
	return param{funcKey(fn), k}, true
}

// isNil reports whether e is the predeclared nil.
func isNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

// reachable walks the call graph from roots, stopping at the keys in
// stop (reviewed cold boundaries). It maps every reached function key to
// the caller it was first reached through (a root to itself): the
// witness for diagnostics.
func (p *Program) reachable(roots, stop []string) map[string]string {
	via := make(map[string]string)
	for _, r := range roots {
		via[r] = r
	}
	for queue := slices.Clone(roots); len(queue) > 0; queue = queue[1:] {
		for _, callee := range p.Calls[queue[0]] {
			if _, seen := via[callee]; !seen && !slices.Contains(stop, callee) {
				via[callee] = queue[0]
				queue = append(queue, callee)
			}
		}
	}
	return via
}
