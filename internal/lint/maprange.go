package lint

import (
	"go/ast"
	"go/types"
)

// MapRange forbids ranging over a map, a channel or a maps iterator
// (maps.All, maps.Keys, maps.Values) in the deterministic packages: map
// iteration order is randomized per run and a channel's receive order is
// whatever its senders' scheduling produced, so any such range whose
// visit order can reach simulation state (counters, schedules, RNG draws
// and stream assignment, float accumulation, output rows) breaks the
// bit-identical-trace contract. Rejecting the range itself covers every
// order-sensitive effect in its body at once. There is no annotation to
// excuse one: iterate sorted keys (slices.Sorted(maps.Keys(m))) or keep
// the data in a slice.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "forbid unordered map and channel iteration in deterministic packages",
	Run:  runMapRange,
}

func runMapRange(pass *Pass) {
	for _, f := range pass.Pkg.Syntax {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			switch pass.Pkg.Info.TypeOf(rs.X).Underlying().(type) {
			case *types.Map:
				pass.Reportf(rs.For,
					"range over map: iteration order is nondeterministic; iterate sorted keys (slices.Sorted(maps.Keys(m))) or a slice")
			case *types.Chan:
				pass.Reportf(rs.For,
					"range over channel: receive order follows the senders' scheduling; collect and sort, or receive in a fixed order")
			case *types.Signature: // an iterator
				if callsMaps(pass.Pkg.Info, rs.X) {
					pass.Reportf(rs.For,
						"range over a maps iterator: it yields in map order; iterate sorted keys (slices.Sorted(maps.Keys(m)))")
				}
			}
			return true
		})
	}
}

// callsMaps reports whether e is a call into package maps: maps.All,
// maps.Keys and maps.Values are iterators that yield in map order.
func callsMaps(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "maps"
}
