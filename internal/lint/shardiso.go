package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ShardIsolation turns PR 4's hand-written determinism argument —
// "within a parallel section no shard reads or writes another shard's
// state" — into a checked whole-program invariant. Every function
// reachable through the call graph from a parallel root (the shard
// worker bodies, the Algorithm hook surface) is analyzed with a
// field-granular locality dataflow:
//
//   - The receiver and parameters start out assumed shard-local — that
//     is the caller's obligation — unless their type is registered
//     globally shared (GlobalStateTypes: Network, core.GroupDirty). The
//     assumption is then discharged interprocedurally: every reachable
//     call site re-evaluates its arguments under the caller's own
//     dataflow, and a parameter that is ever handed a non-local value is
//     demoted, cascading through the call graph to a fixpoint. At the
//     roots the obligation holds by construction — the shard scheduler
//     hands each worker only its own shard.
//   - Locality propagates structurally: fields and method results of
//     local values are local; indexing a registered shard table
//     (Network.Routers, Network.nics, …) with a locally-derived index is
//     local; a registered index-preserving topology accessor maps local
//     arguments to a local result; fresh values (composite literals,
//     new/make) are local.
//   - Reading a registered cross-shard field (Packet.DstRouter, an input
//     port's upstream coordinates, an output port's peer coordinates)
//     yields a non-local value: indexing a shard table with it reaches
//     another shard's router.
//
// A write (assignment, op-assignment, ++/--) whose target's container is
// not provably local is a finding, unless the enclosing function is a
// registered cross-shard conduit (ShardConduits — the mailbox append and
// the GroupDirty flag write, whose bodies are the reviewed cross-shard
// channels). There is no annotation: a write the dataflow cannot prove
// local is restructured or routed through a conduit.
var ShardIsolation = &ProgramAnalyzer{
	Name: "shardisolation",
	Doc:  "writes reachable from a parallel root must target provably shard-local state",
	Run:  runShardIsolation,
}

func runShardIsolation(pp *ProgramPass) {
	cfg := pp.Cfg
	prog := pp.Prog
	conduit := make(map[string]bool, len(cfg.ShardConduits))
	for _, c := range cfg.ShardConduits {
		conduit[c] = true
	}
	// Conduits stop reachability too: the code a conduit body runs is
	// part of the reviewed cross-shard channel.
	via := prog.reachable(prog.parallelRootKeys(), conduit)

	iso := &shardIso{pp: pp, envs: make(map[string]*shardAnalysis)}
	keys := make([]string, 0, len(via))
	for _, key := range sortedReached(via) {
		fi := prog.Funcs[key]
		if fi == nil || !cfg.IsDeterministic(fi.Pkg.Path) {
			continue
		}
		sa := &shardAnalysis{pp: pp, fi: fi, root: via[key]}
		sa.seed()
		iso.envs[key] = sa
		keys = append(keys, key)
	}

	// Interprocedural fixpoint: solve each function's local dataflow,
	// demote callee parameters handed non-local arguments, re-solve the
	// demoted callees. Locality only ever decreases, so this terminates.
	queue := append([]string(nil), keys...)
	inQueue := make(map[string]bool, len(queue))
	for _, k := range queue {
		inQueue[k] = true
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		inQueue[key] = false
		sa := iso.envs[key]
		sa.solve()
		for _, demoted := range iso.propagate(sa) {
			if !inQueue[demoted] {
				inQueue[demoted] = true
				queue = append(queue, demoted)
			}
		}
	}

	for _, key := range keys {
		iso.envs[key].checkWrites()
	}
}

// shardIso is the whole-program state of one shardisolation run.
type shardIso struct {
	pp   *ProgramPass
	envs map[string]*shardAnalysis
}

// propagate re-evaluates every resolved call site of one solved function
// and demotes callee parameters handed non-local arguments, returning
// the keys of callees that changed.
func (iso *shardIso) propagate(sa *shardAnalysis) []string {
	info := sa.fi.Pkg.Info
	var changed []string
	ast.Inspect(sa.fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		callee := iso.envs[funcKey(fn)]
		if callee == nil || callee == sa {
			return true
		}
		any := false
		if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
			if s, found := info.Selections[sel]; found && s.Kind() == types.MethodVal {
				if !sa.localExpr(sel.X) && callee.demoteRecv() {
					any = true
				}
			}
		}
		params := callee.paramObjs()
		for i, arg := range call.Args {
			j := i
			if j >= len(params) {
				j = len(params) - 1 // variadic tail
			}
			if j < 0 {
				break
			}
			if !sa.localExpr(arg) && callee.demote(params[j]) {
				any = true
			}
		}
		if any {
			changed = append(changed, callee.fi.Key)
		}
		return true
	})
	return changed
}

// shardAnalysis is the per-function locality dataflow.
type shardAnalysis struct {
	pp   *ProgramPass
	fi   *FuncInfo
	root string

	// local maps a function-scope variable object to its locality:
	// present and true = provably shard-local; present and false =
	// tainted non-local; absent = never bound (treated non-local).
	local map[types.Object]bool

	recv   types.Object
	params []types.Object
}

// seed installs the optimistic parameter assumptions.
func (sa *shardAnalysis) seed() {
	sa.local = make(map[types.Object]bool)
	info := sa.fi.Pkg.Info
	cfg := sa.pp.Cfg

	seedList := func(fields *ast.FieldList, collect *[]types.Object) {
		if fields == nil {
			return
		}
		for _, fld := range fields.List {
			for _, name := range fld.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				sa.local[obj] = !isGlobalStateType(cfg, obj.Type())
				if collect != nil {
					*collect = append(*collect, obj)
				}
			}
		}
	}
	var recvs []types.Object
	seedList(sa.fi.Decl.Recv, &recvs)
	if len(recvs) > 0 {
		sa.recv = recvs[0]
	}
	seedList(sa.fi.Decl.Type.Params, &sa.params)
	seedList(sa.fi.Decl.Type.Results, nil)
}

// paramObjs exposes the declared parameter objects in order.
func (sa *shardAnalysis) paramObjs() []types.Object { return sa.params }

// demote marks a parameter non-local, reporting whether that changed
// anything.
func (sa *shardAnalysis) demote(obj types.Object) bool {
	if obj == nil || !sa.local[obj] {
		return false
	}
	sa.local[obj] = false
	return true
}

// demoteRecv demotes the receiver.
func (sa *shardAnalysis) demoteRecv() bool { return sa.demote(sa.recv) }

// solve runs the intraprocedural fixpoint over the bindings: a variable
// is local only while every binding assigns it a local value.
// Loop-carried taint converges in a few rounds (monotone: locality only
// decreases after the first binding).
func (sa *shardAnalysis) solve() {
	for changed := true; changed; {
		changed = false
		ast.Inspect(sa.fi.Decl.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				changed = sa.bindAssign(st) || changed
			case *ast.ValueSpec:
				for i, name := range st.Names {
					loc := false
					if len(st.Values) == len(st.Names) {
						loc = sa.localExpr(st.Values[i])
					} else if len(st.Values) == 1 {
						loc = sa.localExpr(st.Values[0])
					} else {
						// var x T — zero value, fresh.
						loc = true
					}
					changed = sa.bindIdent(name, loc) || changed
				}
			case *ast.RangeStmt:
				loc := sa.localExpr(st.X)
				for _, e := range []ast.Expr{st.Key, st.Value} {
					if id, ok := e.(*ast.Ident); ok && id != nil {
						changed = sa.bindIdent(id, loc) || changed
					}
				}
			}
			return true
		})
	}
}

// bindAssign folds one assignment statement into the locality map,
// reporting whether anything changed.
func (sa *shardAnalysis) bindAssign(st *ast.AssignStmt) bool {
	changed := false
	if len(st.Lhs) == len(st.Rhs) {
		for i, lhs := range st.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				changed = sa.bindIdent(id, sa.localExpr(st.Rhs[i])) || changed
			}
		}
		return changed
	}
	// a, b := f() — every target inherits the call's locality.
	loc := false
	if len(st.Rhs) == 1 {
		loc = sa.localExpr(st.Rhs[0])
	}
	for _, lhs := range st.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			changed = sa.bindIdent(id, loc) || changed
		}
	}
	return changed
}

// bindIdent merges one binding: first sight sets, later sights AND.
func (sa *shardAnalysis) bindIdent(id *ast.Ident, loc bool) bool {
	if id.Name == "_" {
		return false
	}
	info := sa.fi.Pkg.Info
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	old, seen := sa.local[obj]
	now := loc
	if seen {
		now = old && loc
	}
	if !seen || now != old {
		sa.local[obj] = now
		return true
	}
	return false
}

// localExpr reports whether an expression provably denotes (or indexes
// into) this shard's own state.
func (sa *shardAnalysis) localExpr(e ast.Expr) bool {
	info := sa.fi.Pkg.Info
	cfg := sa.pp.Cfg
	switch x := e.(type) {
	case *ast.ParenExpr:
		return sa.localExpr(x.X)
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() {
			return sa.local[obj]
		}
		return false
	case *ast.SelectorExpr:
		sel, ok := info.Selections[x]
		if !ok || sel.Kind() != types.FieldVal {
			return false
		}
		if !sa.localExpr(x.X) {
			return false
		}
		owner := namedTypeKey(sel.Recv())
		if fieldRefIn(cfg.CrossShardFields, owner, x.Sel.Name) {
			// The field's value points across the shard boundary
			// (upstream/peer coordinates, a packet's destination).
			return false
		}
		if isGlobalStateType(cfg, sel.Obj().Type()) {
			// e.g. a back-pointer to the Network.
			return false
		}
		return true
	case *ast.IndexExpr:
		if owner, field, ok := selectorRef(info, x.X); ok &&
			fieldRefIn(cfg.ShardTables, owner, field) {
			// A shard table: the element is local exactly when the index
			// is derived from this shard's own ids.
			return sa.localExpr(x.Index)
		}
		return sa.localExpr(x.X)
	case *ast.StarExpr:
		return sa.localExpr(x.X)
	case *ast.UnaryExpr:
		return sa.localExpr(x.X)
	case *ast.BinaryExpr:
		return sa.localExpr(x.X) && sa.localExpr(x.Y)
	case *ast.SliceExpr:
		return sa.localExpr(x.X)
	case *ast.TypeAssertExpr:
		return sa.localExpr(x.X)
	case *ast.CompositeLit:
		// A fresh value: nobody else holds a reference yet.
		return true
	case *ast.CallExpr:
		return sa.localCall(x)
	}
	return false
}

// localCall classifies a call expression's result locality.
func (sa *shardAnalysis) localCall(call *ast.CallExpr) bool {
	info := sa.fi.Pkg.Info
	cfg := sa.pp.Cfg
	fun := ast.Unparen(call.Fun)

	// Type conversion: locality of the operand.
	if tv, ok := info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return sa.localExpr(call.Args[0])
	}
	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "new", "make":
				return true // fresh
			case "append", "len", "cap", "min", "max":
				if len(call.Args) > 0 {
					return sa.localExpr(call.Args[0])
				}
			}
			return false
		}
	}
	if fn := calleeFunc(info, call); fn != nil {
		if funcKeyIn(cfg.IndexPreservingFuncs, funcKey(fn)) {
			// Registered topology accessor: local arguments in, local
			// index out.
			for _, a := range call.Args {
				if !sa.localExpr(a) {
					return false
				}
			}
			return true
		}
	}
	// A method called on a local receiver hands back that receiver's own
	// state (pop from an owned queue, the owned active set's id slice).
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			return sa.localExpr(sel.X)
		}
	}
	return false
}

// checkWrites flags every write whose target container is not provably
// local.
func (sa *shardAnalysis) checkWrites() {
	ast.Inspect(sa.fi.Decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				sa.checkTarget(lhs)
			}
		case *ast.IncDecStmt:
			sa.checkTarget(st.X)
		}
		return true
	})
}

// checkTarget vets one assignment target.
func (sa *shardAnalysis) checkTarget(lhs ast.Expr) {
	e := ast.Unparen(lhs)
	info := sa.fi.Pkg.Info
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			sa.flag(e, "package-level variable "+v.Name())
		}
		return
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if !sa.localExpr(x.X) {
				sa.flag(e, exprString(e))
			}
		}
		return
	case *ast.IndexExpr:
		if !sa.localExpr(x) {
			sa.flag(e, exprString(e))
		}
		return
	case *ast.StarExpr:
		if !sa.localExpr(x.X) {
			sa.flag(e, exprString(e))
		}
		return
	}
}

// flag reports one non-local write.
func (sa *shardAnalysis) flag(e ast.Expr, target string) {
	sa.pp.Reportf(e.Pos(),
		"write to %s is not provably shard-local inside a parallel section (reachable from %s); derive the target from the shard's own state or route it through a registered conduit",
		target, sa.root)
}

// --- registry lookup helpers ---

// FieldRef names one field of a named type for the shard registries.
type FieldRef struct {
	// Type is the owning named type's key: "<pkgpath>.<TypeName>".
	Type string
	// Field is the field name.
	Field string
}

func fieldRefIn(refs []FieldRef, owner, field string) bool {
	for _, r := range refs {
		if r.Type == owner && r.Field == field {
			return true
		}
	}
	return false
}

func funcKeyIn(keys []string, key string) bool {
	for _, k := range keys {
		if k == key {
			return true
		}
	}
	return false
}

// selectorRef resolves an expression to (owning type key, field name)
// when it is a field selection.
func selectorRef(info *types.Info, e ast.Expr) (owner, field string, ok bool) {
	sel, isSel := ast.Unparen(e).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	s, found := info.Selections[sel]
	if !found || s.Kind() != types.FieldVal {
		return "", "", false
	}
	return namedTypeKey(s.Recv()), sel.Sel.Name, true
}

// isGlobalStateType reports whether t (possibly pointer-wrapped) is a
// registered globally-shared type.
func isGlobalStateType(cfg *Config, t types.Type) bool {
	key := namedTypeKey(t)
	if key == "" {
		return false
	}
	for _, g := range cfg.GlobalStateTypes {
		if g == key {
			return true
		}
	}
	return false
}
