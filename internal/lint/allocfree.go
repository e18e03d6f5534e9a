package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// AllocFree is the static half of PR 1's zero-steady-state-allocation
// guarantee. The dynamic half — `cmd/bench -compare` allocation
// baselines — catches a regression after it ships; this analyzer makes
// the freelist/ring discipline reviewable at the source level. Every
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
// registry prunes reachability at reviewed cold boundaries (fault
// application, invariant sweeps) the same way conduits prune
// shardisolation.
var AllocFree = &ProgramAnalyzer{
	Name: "allocfree",
	Doc:  "hot-path functions must not heap-allocate in steady state",
	Run:  runAllocFree,
}

func runAllocFree(pp *ProgramPass) {
	cfg := pp.Cfg
	prog := pp.Prog
	cold := make(map[string]bool, len(cfg.ColdPath))
	for _, c := range cfg.ColdPath {
		cold[c] = true
	}
	via := prog.reachable(prog.hotRootKeys(), cold)

	used := make(map[*Annotation]bool)
	for _, key := range sortedReached(via) {
		fi := prog.Funcs[key]
		if fi == nil || !cfg.IsDeterministic(fi.Pkg.Path) {
			continue
		}
		aa := &allocAnalysis{pp: pp, fi: fi, root: via[key], used: used}
		aa.run()
	}
	reportStaleAllocAnnotations(pp, used)
}

// reportStaleAllocAnnotations flags every //lint:alloc annotation, in a
// deterministic package's non-test files, that did not suppress a
// finding, plus annotations with no reason.
func reportStaleAllocAnnotations(pp *ProgramPass, used map[*Annotation]bool) {
	for _, pkg := range pp.Prog.Pkgs {
		if !pp.Cfg.IsDeterministic(pkg.Path) {
			continue
		}
		for i, f := range pkg.Syntax {
			if pkg.TestFile[i] {
				continue
			}
			for _, anns := range pkg.annotations[f] {
				for _, a := range anns {
					if a.Directive != directiveAlloc {
						continue
					}
					if a.Reason == "" {
						pp.Reportf(a.Pos, "//lint:alloc annotation without a reason: a reviewed escape hatch must say why")
						continue
					}
					if !used[a] {
						pp.Reportf(a.Pos, "stale //lint:alloc annotation: suppresses no hot-path allocation finding")
					}
				}
			}
		}
	}
}

// allocAnalysis scans one hot-path-reachable function.
type allocAnalysis struct {
	pp   *ProgramPass
	fi   *FuncInfo
	root string
	used map[*Annotation]bool

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
		fieldRefIn(aa.pp.Cfg.PooledSlices, owner, field) {
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
	if a := pkg.annotationAt(aa.fi.File, line, directiveAlloc); a != nil && a.Reason != "" {
		aa.used[a] = true
		return
	}
	aa.pp.Reportf(pos,
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
