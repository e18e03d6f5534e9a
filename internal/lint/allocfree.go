package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"slices"
)

// AllocFree checks the static half of the engine's zero-steady-state-
// allocation guarantee. The dynamic half — the `cmd/bench -compare` allocation
// baselines and the construction gate — sees the paths its rows run;
// this analyzer sees every path, a mechanism no gated row runs (VAL) or
// a query whose rows only annotate (ElideHorizon) included. Every
// function reachable through the call graph from the hot-path root (the
// driver's cycle loop; a call through an interface reaches every
// implementation) is scanned for heap-allocating constructs:
//
//   - `make` and `new`;
//   - composite literals whose address escapes (&T{…}) and reference
//     literals (slice, map) — plain value literals (event{…}, a whole
//     struct overwrite through a freelist pointer) stay on the stack and
//     are exempt;
//   - `append` onto anything but a registered pooled backing slice
//     (PooledSlices) or a local derived from a `x[:0]` compaction
//     reslice — those reuse steady-state capacity;
//   - function literals (closure captures allocate), unless every use,
//     direct or through the one local the literal is defined into, is a
//     call or an argument to a parameter that does not escape (its
//     function only calls it, compares it with nil or passes it to such
//     a parameter): those stay on the stack;
//   - fmt.* calls, string concatenation and conversions to interface
//     types that box non-pointer values.
//
// Arguments of panic(...) are exempt wholesale: an invariant panic's
// message allocation is dead code on every healthy run. Other findings
// are suppressed by a `//lint:alloc <reason>` annotation on the
// construct's line (or the line above); the reason states why the
// allocation is not steady-state (warm-up freelist miss, amortized
// doubling, per-cycle coordinator cost measured in the baselines). A
// stale annotation — one suppressing nothing — is a finding, so the
// escape hatches cannot outlive the code they excuse. The ColdPath
// registry prunes reachability at a reviewed cold boundary (a fault
// event's application). It returns the findings sorted by position.
func AllocFree(prog *Program) []Diagnostic {
	cfg := prog.Cfg
	af := &allocFree{prog: prog, used: make(map[*Annotation]bool)}
	var roots []string
	for _, r := range cfg.HotPath {
		if prog.Funcs[r] == nil {
			af.diags = append(af.diags, Diagnostic{Analyzer: "allocfree",
				Message: "hot-path root " + r + " is not in the load: nothing reachable from it is checked"})
			continue
		}
		roots = append(roots, r)
	}
	via := prog.reachable(roots, cfg.ColdPath)
	for _, key := range slices.Sorted(maps.Keys(via)) {
		fi := prog.Funcs[key]
		if fi == nil || !cfg.IsDeterministic(fi.Pkg.Path) {
			continue
		}
		aa := &allocAnalysis{af: af, fi: fi, caller: via[key]}
		aa.run()
	}
	af.reportStale()
	sortDiagnostics(af.diags)
	return af.diags
}

// allocFree is one run's state: the findings, and the annotations that
// suppressed one.
type allocFree struct {
	prog  *Program
	used  map[*Annotation]bool
	diags []Diagnostic
}

// reportf records a finding at pos. All packages of one Load share one
// FileSet, so any position from any package resolves.
func (af *allocFree) reportf(pos token.Pos, format string, args ...any) {
	af.diags = append(af.diags, Diagnostic{
		Pos:      af.prog.Fset.Position(pos),
		Analyzer: "allocfree",
		Message:  fmt.Sprintf(format, args...),
	})
}

// reportStale flags every //lint:alloc annotation, in a deterministic
// package's non-test files, that did not suppress a finding, plus
// annotations with no reason.
func (af *allocFree) reportStale() {
	for _, pkg := range af.prog.Pkgs {
		if !af.prog.Cfg.IsDeterministic(pkg.Path) {
			continue
		}
		for i, f := range pkg.Syntax {
			if pkg.TestFile[i] {
				continue
			}
			for _, a := range pkg.annotations[f] {
				if a.Reason == "" {
					af.reportf(a.Pos, "//lint:alloc annotation without a reason: a reviewed escape hatch must say why")
					continue
				}
				if !af.used[a] {
					af.reportf(a.Pos, "stale //lint:alloc annotation: suppresses no hot-path allocation finding")
				}
			}
		}
	}
}

// allocAnalysis scans one hot-path-reachable function.
type allocAnalysis struct {
	af     *allocFree
	fi     *FuncInfo
	caller string // the function it was first reached from: the witness

	// compacted holds local slice variables bound from a `x[:0]` reslice
	// (and kept there by self-appends): appending to them reuses pooled
	// capacity.
	compacted map[types.Object]bool
	// onStack holds the function literals that stay on the stack.
	onStack map[ast.Expr]bool
}

func (aa *allocAnalysis) run() {
	aa.compacted = make(map[types.Object]bool)
	info, stays := aa.fi.Pkg.Info, aa.af.prog.stays
	// A function literal stays on the stack when it is used where
	// stackUses keeps it, or defined into a local every use of which is.
	aa.onStack = make(map[ast.Expr]bool)
	stackUses(info, aa.fi.Decl.Body, stays, func(e ast.Expr) { aa.onStack[e] = true })

	// First pass: find the compaction-reslice locals and the literals
	// defined into a local.
	ast.Inspect(aa.fi.Decl.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != len(st.Rhs) {
			return true
		}
		for i, lhs := range st.Lhs {
			id, isID := ast.Unparen(lhs).(*ast.Ident)
			if !isID {
				continue
			}
			obj := info.ObjectOf(id)
			if obj == nil {
				continue
			}
			switch rhs := ast.Unparen(st.Rhs[i]).(type) {
			case *ast.FuncLit:
				aa.onStack[rhs] = st.Tok == token.DEFINE && stackOnly(info, aa.fi.Decl.Body, obj, stays)
			case *ast.SliceExpr:
				if isZeroReslice(info, rhs) {
					aa.compacted[obj] = true
				}
			}
		}
		return true
	})

	// Second pass: flag the allocating constructs, skipping panic
	// arguments.
	ast.Inspect(aa.fi.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isPanicCall(info, call) {
			return false // invariant panics are dead on healthy runs
		}
		aa.checkNode(n)
		return true
	})
}

// checkNode vets one syntax node for hot-path allocation.
func (aa *allocAnalysis) checkNode(n ast.Node) {
	info := aa.fi.Pkg.Info
	switch x := n.(type) {
	case *ast.CallExpr:
		fun := ast.Unparen(x.Fun)
		if id, ok := fun.(*ast.Ident); ok {
			if _, isB := info.Uses[id].(*types.Builtin); isB {
				switch id.Name {
				case "make":
					aa.flag(x.Pos(), "make allocates")
				case "new":
					aa.flag(x.Pos(), "new allocates")
				case "append":
					aa.checkAppend(x)
				}
				return
			}
		}
		if fn := calleeFunc(info, x); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			aa.flag(x.Pos(), "fmt."+fn.Name()+" allocates (formatting, interface boxing)")
			return
		}
		aa.checkBoxing(x)
	case *ast.CompositeLit:
		// Reference literals always allocate; value literals only when
		// their address is taken — the UnaryExpr case catches those.
		if t := info.TypeOf(x); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice:
				aa.flag(x.Pos(), "slice literal allocates")
			case *types.Map:
				aa.flag(x.Pos(), "map literal allocates")
			}
		}
	case *ast.UnaryExpr:
		if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok && x.Op == token.AND {
			aa.flag(lit.Pos(), "escaping composite literal (&T{…}) allocates")
		}
	case *ast.FuncLit:
		if !aa.onStack[x] {
			aa.flag(x.Pos(), "function literal allocates (closure capture)")
		}
	case *ast.BinaryExpr:
		if x.Op == token.ADD && isStringType(info.TypeOf(x)) {
			aa.flag(x.Pos(), "string concatenation allocates")
		}
	case *ast.AssignStmt:
		if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(info.TypeOf(x.Lhs[0])) {
			aa.flag(x.Pos(), "string concatenation allocates")
		}
	}
}

// checkAppend vets one append call: pooled backing slices and compaction
// reslices reuse steady-state capacity, anything else may grow.
func (aa *allocAnalysis) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	info := aa.fi.Pkg.Info
	dst := ast.Unparen(call.Args[0])

	// Strip index expressions: src.outbox[t] pools on (netShard, outbox).
	base := dst
	for ix, ok := base.(*ast.IndexExpr); ok; ix, ok = base.(*ast.IndexExpr) {
		base = ast.Unparen(ix.X)
	}
	if owner, field, ok := selectorRef(info, base); ok &&
		slices.Contains(aa.af.prog.Cfg.PooledSlices, FieldRef{owner, field}) {
		return
	}
	if id, ok := base.(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj != nil && aa.compacted[obj] {
			return
		}
	}
	if isZeroReslice(info, dst) {
		return // append(x[:0], …) reuses x's capacity
	}
	aa.flag(call.Pos(), "append onto a non-pooled slice may grow (register in PooledSlices or compact with [:0])")
}

// checkBoxing flags arguments boxed into interface parameters: passing a
// non-pointer concrete value where an interface is expected allocates.
func (aa *allocAnalysis) checkBoxing(call *ast.CallExpr) {
	info := aa.fi.Pkg.Info
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		at := info.TypeOf(arg)
		if pt == nil || !types.IsInterface(pt) || at == nil || isNil(info, arg) {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Interface, *types.Signature, *types.Chan, *types.Map:
			continue // pointer-shaped: no box
		}
		aa.flag(arg.Pos(), "interface conversion boxes a non-pointer value")
	}
}

// flag reports one hot-path allocation, unless a //lint:alloc annotation
// with a reason covers its line.
func (aa *allocAnalysis) flag(pos token.Pos, what string) {
	pkg := aa.fi.Pkg
	line := pkg.Fset.Position(pos).Line
	if a := pkg.allocAnnotationAt(aa.fi.File, line); a != nil && a.Reason != "" {
		aa.af.used[a] = true
		return
	}
	aa.af.reportf(pos,
		"%s in a hot-path function (called from %s); reuse pooled state or annotate //lint:alloc with why this is not steady-state",
		what, aa.caller)
}

// isZeroReslice recognizes x[:0] (and x[0:0]): a compaction reslice that
// reuses x's backing array.
func isZeroReslice(info *types.Info, e ast.Expr) bool {
	se, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok || se.High == nil {
		return false
	}
	if !isIntLiteral(info, se.High, 0) {
		return false
	}
	return se.Low == nil || isIntLiteral(info, se.Low, 0)
}

func isIntLiteral(info *types.Info, e ast.Expr, want int64) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return exact && v == want
}

// isStringType reports whether t's underlying type is a string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isPanicCall reports whether call invokes the panic builtin.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}

// FieldRef names one field of a named type for the PooledSlices registry.
type FieldRef struct {
	// Type is the owning named type's key: "<pkgpath>.<TypeName>".
	Type string
	// Field is the field name.
	Field string
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
