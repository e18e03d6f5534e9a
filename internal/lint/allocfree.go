package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// AllocFree checks the static half of the engine's zero-steady-state-
// allocation guarantee. The dynamic half — the `cmd/bench -compare` allocation
// baselines and the construction gate — sees the paths its rows run;
// this analyzer sees every path, a mechanism no gated row runs (VAL) or
// a query whose rows only annotate (ElideHorizon) included. Every
// function reachable through the call graph from a hot-path root
// (Network.Step and the parallel coordinator, event handling, NIC drain,
// the routing/allocation/link phases, steady-state Inject, the
// per-cycle traffic driver, the Algorithm hook surface) is scanned for
// heap-allocating constructs:
//
//   - `make` and `new`;
//   - composite literals whose address escapes (&T{…}) and reference
//     literals (slice, map) — plain value literals (event{…}, a whole
//     struct overwrite through a freelist pointer) stay on the stack and
//     are exempt;
//   - `append` onto anything but a registered pooled backing slice
//     (PooledSlices) or a local derived from a `x[:0]` compaction
//     reslice — those reuse steady-state capacity;
//   - function literals (closure captures allocate);
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
// registry prunes reachability at reviewed cold boundaries (a fault
// event's application, invariant sweeps). It returns the findings sorted by
// position.
func AllocFree(prog *Program) []Diagnostic {
	cfg := prog.Cfg
	cold := make(map[string]bool, len(cfg.ColdPath))
	for _, c := range cfg.ColdPath {
		cold[c] = true
	}
	via := prog.reachable(prog.hotRootKeys(), cold)

	af := &allocFree{prog: prog, used: make(map[*Annotation]bool)}
	for _, key := range sortedReached(via) {
		fi := prog.Funcs[key]
		if fi == nil || !cfg.IsDeterministic(fi.Pkg.Path) {
			continue
		}
		aa := &allocAnalysis{af: af, fi: fi, root: via[key]}
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
	af   *allocFree
	fi   *FuncInfo
	root string

	// compacted holds local slice variables bound from a `x[:0]` reslice
	// (and kept there by self-appends): appending to them reuses pooled
	// capacity.
	compacted map[types.Object]bool
}

func (aa *allocAnalysis) run() {
	aa.compacted = make(map[types.Object]bool)
	info := aa.fi.Pkg.Info

	// First pass: find the compaction-reslice locals.
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
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue
			}
			switch rhs := ast.Unparen(st.Rhs[i]).(type) {
			case *ast.SliceExpr:
				if isZeroReslice(info, rhs) {
					aa.compacted[obj] = true
				}
			case *ast.CallExpr:
				// v = append(v, …) keeps v in the compacted set.
				if fun, isID := ast.Unparen(rhs.Fun).(*ast.Ident); isID && fun.Name == "append" {
					if _, isB := info.Uses[fun].(*types.Builtin); isB && len(rhs.Args) > 0 {
						if src, isID := ast.Unparen(rhs.Args[0]).(*ast.Ident); isID {
							srcObj := info.Uses[src]
							if srcObj != nil && srcObj == obj {
								continue // self-append: membership unchanged
							}
						}
					}
				}
			}
		}
		return true
	})

	// Second pass: flag the allocating constructs, skipping panic
	// arguments.
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil || m == n {
				return m == n
			}
			if call, ok := m.(*ast.CallExpr); ok && isPanicCall(info, call) {
				return false // invariant panics are dead on healthy runs
			}
			aa.checkNode(m)
			return true
		})
	}
	walk(aa.fi.Decl.Body)
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
		if x.Op == token.AND {
			if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				aa.flag(lit.Pos(), "escaping composite literal (&T{…}) allocates")
			}
		}
	case *ast.FuncLit:
		aa.flag(x.Pos(), "function literal allocates (closure capture)")
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
	for {
		if ix, ok := base.(*ast.IndexExpr); ok {
			base = ast.Unparen(ix.X)
			continue
		}
		break
	}
	if owner, field, ok := selectorRef(info, base); ok &&
		fieldRefIn(aa.af.prog.Cfg.PooledSlices, owner, field) {
		return
	}
	if id, ok := base.(*ast.Ident); ok {
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj != nil && aa.compacted[obj] {
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
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Interface, *types.Signature, *types.Chan, *types.Map:
			continue // pointer-shaped: no box
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
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
		"%s in a hot-path function (reachable from %s); reuse pooled state or annotate //lint:alloc with why this is not steady-state",
		what, aa.root)
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

func fieldRefIn(refs []FieldRef, owner, field string) bool {
	for _, r := range refs {
		if r.Type == owner && r.Field == field {
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
