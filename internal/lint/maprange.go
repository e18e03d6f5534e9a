package lint

import (
	"go/ast"
)

// MapRange forbids ranging over a map or a channel in the deterministic
// packages: map iteration order is randomized per run and a channel's
// receive order is whatever its senders' scheduling produced, so any such
// range whose visit order can reach simulation state (counters,
// schedules, RNG draws and stream assignment, float accumulation, output
// rows) breaks the bit-identical-trace contract. Rejecting the range
// itself covers every order-sensitive effect in its body at once. There
// is no annotation to excuse one: iterate sorted keys
// (slices.Sorted(maps.Keys(m))) or keep the data in a slice.
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
			switch t := pass.Pkg.Info.TypeOf(rs.X); {
			case isMapType(t):
				pass.Reportf(rs.For,
					"range over map: iteration order is nondeterministic; iterate sorted keys (slices.Sorted(maps.Keys(m))) or a slice")
			case isChanType(t):
				pass.Reportf(rs.For,
					"range over channel: receive order follows the senders' scheduling; collect and sort, or receive in a fixed order")
			}
			return true
		})
	}
}
