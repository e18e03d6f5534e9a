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
// itself covers every order-sensitive effect in its body at once. A range
// that provably normalizes the order carries a `//lint:ordered <reason>`
// annotation stating why the order does not escape.
var MapRange = &Analyzer{
	Name:  "maprange",
	Doc:   "forbid unordered map and channel iteration in deterministic packages",
	Tests: true,
	Run:   runMapRange,
}

func runMapRange(pass *Pass) {
	pkg := pass.Pkg
	pass.files(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || pkg.orderedFor(f, rs) != nil {
				return true // annotated ranges: the annotation analyzer vets the reason
			}
			switch t := pkg.Info.TypeOf(rs.X); {
			case isMapType(t):
				pass.Reportf(rs.For,
					"range over map: iteration order is nondeterministic; sort the keys, or annotate the statement with `//lint:ordered <reason>` proving the order does not escape")
			case isChanType(t):
				pass.Reportf(rs.For,
					"range over channel: receive order follows the senders' scheduling; collect and sort, or annotate the statement with `//lint:ordered <reason>` proving the order does not escape")
			}
			return true
		})
	})
}
