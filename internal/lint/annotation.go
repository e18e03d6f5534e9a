package lint

import (
	"go/ast"
)

// AnnotationCheck keeps the escape hatch honest. `//lint:ordered` is a
// reviewed assertion, so a bare annotation with no reason is rejected,
// and an annotation that is not attached to a map or channel range
// statement — left behind by a refactor, or placed on the wrong line —
// is a finding rather than silent dead weight. Without this check an
// orphaned annotation would sit in the file until someone introduced a
// new map range near it and inherited an exemption nobody reviewed.
var AnnotationCheck = &Analyzer{
	Name:  "annotation",
	Doc:   "every //lint:ordered annotation carries a reason and guards a real map/chan range",
	Tests: true,
	Run:   runAnnotationCheck,
}

func runAnnotationCheck(pass *Pass) {
	pkg := pass.Pkg
	pass.files(func(f *ast.File) {
		// Lines from which an annotation legitimately guards a map/chan
		// range: the `for` keyword's line (trailing comment) and the line
		// above it (leading comment).
		guarded := make(map[int]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pkg.Info.TypeOf(rs.X)
			if !isMapType(t) && !isChanType(t) {
				return true
			}
			line := pkg.Fset.Position(rs.For).Line
			guarded[line] = true
			guarded[line-1] = true
			return true
		})
		for _, anns := range pkg.annotations[f] {
			for _, a := range anns {
				if a.Directive != directiveOrdered {
					// alloc annotations are vetted by allocfree, which
					// knows reachability.
					continue
				}
				if a.Reason == "" {
					pass.Reportf(a.Pos, "//lint:ordered annotation without a reason: state why the iteration order does not escape")
				}
				if !guarded[a.Line] {
					pass.Reportf(a.Pos, "stale //lint:ordered annotation: not attached to a map or channel range statement")
				}
			}
		}
	})
}
