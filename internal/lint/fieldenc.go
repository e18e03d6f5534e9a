package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// FieldEnc enforces field encapsulation on the accounting state the
// determinism proofs lean on. The occupancy counter is a running sum
// kept equal to its recompute by funnelling every change through
// Router.occDelta (a raw write would desynchronize PB's saturation reads
// and ECN marking between runs);
// the credit/outFree counters are conserved quantities audited by
// CheckInvariants; the active-set bit words carry a population count
// that is only valid while mutation goes through the set's own methods.
// Each registered field may be assigned (or ++/--'d) only inside its
// sanctioned writer functions from the Config registry.
//
// The analyzer covers assignment statements and IncDecStmt; composite
// literals constructing a whole value (outPort{...}) are treated as
// initialization, not mutation — constructors build values wholesale
// and the invariant checker validates the result.
//
// Tests are exempt: scenario builders assign these fields to set up
// states that would take thousands of cycles to reach organically.
var FieldEnc = &Analyzer{
	Name: "fieldenc",
	Doc:  "encapsulated accounting fields may only be written by their sanctioned mutators",
	Run:  runFieldEnc,
}

func runFieldEnc(pass *Pass) {
	if len(pass.Cfg.Fields) == 0 {
		return
	}
	pkg := pass.Pkg
	idx := newDeclIndex(pkg, false)

	pass.files(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					pass.checkFieldWrite(idx, lhs)
				}
			case *ast.IncDecStmt:
				pass.checkFieldWrite(idx, st.X)
			}
			return true
		})
	})
}

// checkFieldWrite vets one assignment target against the field registry.
func (pass *Pass) checkFieldWrite(idx *declIndex, lhs ast.Expr) {
	sel, rule := pass.fieldRuleFor(lhs)
	if rule == nil {
		return
	}
	writer := ""
	if d := idx.enclosing(lhs.Pos()); d != nil {
		writer = declKey(pass.Pkg.Info, d)
	}
	for _, w := range rule.Writers {
		if w == writer {
			return
		}
	}
	site := writer
	if site == "" {
		site = "a package-level initializer"
	}
	pass.Reportf(sel.Sel.Pos(),
		"write to %s.%s outside its sanctioned mutators: %s is not one of %s",
		rule.Type, rule.Field, site, strings.Join(rule.Writers, ", "))
}

// fieldRuleFor resolves an assignment target to a registered field rule:
// the target must be a selector (possibly through pointers, parens and
// index expressions: r.out[i].occ), or an element of one (r.heads[i]: a
// write into a slice field is a write to the field), whose field and
// owning named type match a FieldRule.
func (pass *Pass) fieldRuleFor(lhs ast.Expr) (*ast.SelectorExpr, *FieldRule) {
	e := ast.Unparen(lhs)
	if star, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(star.X)
	}
	for ix, ok := e.(*ast.IndexExpr); ok; ix, ok = e.(*ast.IndexExpr) {
		e = ast.Unparen(ix.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	selection, ok := pass.Pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil, nil
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return nil, nil
	}
	ownerKey := namedTypeKey(selection.Recv())
	if ownerKey == "" {
		return nil, nil
	}
	for i := range pass.Cfg.Fields {
		rule := &pass.Cfg.Fields[i]
		if rule.Field == field.Name() && rule.Type == ownerKey {
			return sel, rule
		}
	}
	return nil, nil
}

// namedTypeKey renders the "<pkgpath>.<TypeName>" key of a (possibly
// pointer-wrapped) named type, or "" when the type is unnamed.
func namedTypeKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
