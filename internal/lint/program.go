package lint

import (
	"go/ast"
	"go/token"
	"sort"
)

// The whole-program layer. The per-package analyzers (lint.go) see one
// package at a time; allocfree reasons about reachability from the
// hot-path roots across package boundaries — routing-algorithm hooks in
// cbar/internal/routing run inside cbar/internal/router's phase graphs.
// Program is the substrate: every module package of one Load, a
// funcKey-indexed declaration table, and the call graph over it, built
// once per detlint invocation so the load/type-check cost is paid once.

// FuncInfo is one analyzable function body: a declared function or
// method.
type FuncInfo struct {
	Key  string // funcKey of the declaration
	Pkg  *Package
	File *ast.File
	Decl *ast.FuncDecl
}

// CallEdge is one resolved call site.
type CallEdge struct {
	Callee string
	Pos    token.Pos
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

	// Calls is the call graph: caller funcKey → resolved call sites.
	// Calls inside function literals attribute to the enclosing
	// declaration (a closure a function builds is work that function
	// causes).
	Calls map[string][]CallEdge
}

// NewProgram indexes the packages of one Load and builds the call graph.
func NewProgram(pkgs []*Package, cfg *Config) *Program {
	prog := &Program{
		Cfg:   cfg,
		Pkgs:  pkgs,
		Funcs: make(map[string]*FuncInfo),
		Calls: make(map[string][]CallEdge),
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
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
					prog.Funcs[key] = &FuncInfo{Key: key, Pkg: pkg, File: f, Decl: fd}
				}
				prog.indexBody(pkg, key, fd.Body)
			}
		}
	}
	return prog
}

// indexBody records the call edges of one function body under owner.
func (p *Program) indexBody(pkg *Package, owner string, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pkg.Info, call); fn != nil {
			p.Calls[owner] = append(p.Calls[owner], CallEdge{Callee: funcKey(fn), Pos: call.Pos()})
		}
		return true
	})
}

// hotRootKeys resolves the hot-path roots: exact HotPath keys plus any
// declared method whose name is in HotPathMethods.
func (p *Program) hotRootKeys() []string {
	exactSet := make(map[string]bool, len(p.Cfg.HotPath))
	for _, r := range p.Cfg.HotPath {
		exactSet[r] = true
	}
	methodSet := make(map[string]bool, len(p.Cfg.HotPathMethods))
	for _, m := range p.Cfg.HotPathMethods {
		methodSet[m] = true
	}
	var roots []string
	for key, fi := range p.Funcs {
		if exactSet[key] {
			roots = append(roots, key)
			continue
		}
		if fi.Decl.Recv != nil && methodSet[fi.Decl.Name.Name] &&
			p.Cfg.IsDeterministic(fi.Pkg.Path) {
			roots = append(roots, key)
		}
	}
	sort.Strings(roots)
	return roots
}

// reachable BFS-walks the call graph from roots, stopping at the keys in
// stop (reviewed cold boundaries). It returns, for every
// reached function key, the root it was first reached from (roots map to
// themselves) — the witness for diagnostics.
func (p *Program) reachable(roots []string, stop map[string]bool) map[string]string {
	via := make(map[string]string)
	queue := make([]string, 0, len(roots))
	for _, r := range roots {
		if _, seen := via[r]; !seen && !stop[r] {
			via[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		for _, e := range p.Calls[key] {
			if _, seen := via[e.Callee]; seen || stop[e.Callee] {
				continue
			}
			via[e.Callee] = via[key]
			queue = append(queue, e.Callee)
		}
	}
	return via
}

// sortedReached orders a reachability result for deterministic output.
func sortedReached(via map[string]string) []string {
	keys := make([]string, 0, len(via))
	for k := range via {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
