package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SequentialPoint enforces the barrier placement of the engine's
// sequential points. The parallel step interleaves two fork/join
// sections (handle+route, link+merge); between them — all workers
// parked — the coordinator replays deliveries and notifications,
// applies fault events and runs Alg.BeginCycle. Those functions mutate
// cross-shard state with no synchronization of their own, so the source
// must guarantee they execute only at their registered call sites:
//
//   - a direct call to a barrier-only function from any function other
//     than its sanctioned callers is a finding;
//   - a barrier-only function used as a value (method expression, method
//     value, assignment to a variable) is a finding — the reference
//     could escape to an arbitrary call site;
//   - any sanctioned caller or barrier-only function reachable through
//     the call graph from a parallel root (the shard worker bodies and
//     the Algorithm hook surface) is a finding, even when every
//     individual edge looks sanctioned.
//
// The first two are checks of one package's syntax (this analyzer); the
// third walks the whole program's call graph (SequentialReach, the same
// analyzer name), so a chain that leaves the package of its root — a
// routing hook calling a fabric helper that calls a barrier-only
// function — is seen.
//
// Tests are exempt: they run single-goroutine at sequential points by
// construction, and the scenario builders poke these functions on
// purpose.
var SequentialPoint = &Analyzer{
	Name: "sequentialpoint",
	Doc:  "barrier-only functions may only run at their registered sequential points",
	Run:  runSequentialPoint,
}

func runSequentialPoint(pass *Pass) {
	cfg := pass.Cfg
	if len(cfg.BarrierOnly) == 0 {
		return
	}
	pkg := pass.Pkg
	idx := newDeclIndex(pkg, false)

	allowed := func(barrier, caller string) bool {
		for _, ok := range cfg.BarrierOnly[barrier] {
			if ok == caller {
				return true
			}
		}
		return false
	}

	// calleeIdents collects the identifiers that appear in call position,
	// so any *other* use of a barrier-only function is an escaping
	// reference.
	calleeIdents := make(map[*ast.Ident]bool)

	pass.files(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				calleeIdents[fun] = true
			case *ast.SelectorExpr:
				calleeIdents[fun.Sel] = true
			}
			fn := calleeFunc(pkg.Info, call)
			if fn == nil {
				return true
			}
			key := funcKey(fn)
			caller := ""
			if d := idx.enclosing(call.Pos()); d != nil {
				caller = declKey(pkg.Info, d)
			}
			if _, isBarrier := cfg.BarrierOnly[key]; isBarrier && !allowed(key, caller) {
				site := caller
				if site == "" {
					site = "a package-level initializer"
				}
				pass.Reportf(call.Pos(),
					"%s is barrier-only (sequential point); %s is not a sanctioned call site (sanctioned: %s)",
					key, site, callerList(cfg.BarrierOnly[key]))
			}
			return true
		})
	})

	// Escaping references: a barrier-only function mentioned outside call
	// position (method value, method expression, assignment).
	pass.files(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || calleeIdents[id] {
				return true
			}
			fn, ok := pkg.Info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			key := funcKey(fn)
			if _, isBarrier := cfg.BarrierOnly[key]; isBarrier {
				pass.Reportf(id.Pos(),
					"%s is barrier-only (sequential point); taking it as a value lets it escape its sanctioned call sites", key)
			}
			return true
		})
	})
}

// SequentialReach is sequentialpoint's reachability check, over the
// whole program's call graph: every function that must not run inside a
// parallel section — the barrier-only functions and their sanctioned
// callers (reaching Network.Step from routePhase is as fatal as reaching
// replayDeliveries directly) — must be unreachable from the parallel
// roots. The finding is reported at the call edge that crosses into
// sequential-point territory.
var SequentialReach = &ProgramAnalyzer{
	Name: SequentialPoint.Name,
	Doc:  "nothing that runs only at a sequential point may be reachable from a parallel root",
	Run:  runSequentialReach,
}

func runSequentialReach(pp *ProgramPass) {
	sequentialOnly := make(map[string]bool)
	for barrier, callers := range pp.Cfg.BarrierOnly {
		sequentialOnly[barrier] = true
		for _, c := range callers {
			sequentialOnly[c] = true
		}
	}
	via := pp.Prog.reachable(pp.Prog.parallelRootKeys(), nil)
	for _, key := range sortedReached(via) {
		for _, e := range pp.Prog.Calls[key] {
			if sequentialOnly[e.Callee] {
				pp.Reportf(e.Pos,
					"%s runs only at sequential points but is reachable from a parallel root through %s",
					e.Callee, key)
			}
		}
	}
}

// callerList renders a sanctioned-caller set for diagnostics.
func callerList(callers []string) string {
	if len(callers) == 0 {
		return "none — interface dispatch only"
	}
	return strings.Join(callers, ", ")
}
