package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// RNGPurity enforces the randomness contract of the deterministic
// packages: every random decision must come from the sanctioned PCG
// streams, seeded only from (run seed, entity id).
//
//   - math/rand and math/rand/v2 are banned outright: their global
//     generators are shared mutable state and their sequences are not
//     pinned across Go releases.
//   - time.Now/Since/Until are banned: wall-clock input makes two runs
//     of the same seed diverge.
//   - rng.New / (*rng.PCG).Seed calls are vetted: the seed argument must
//     be derived from a seed-named value (net.seed, cfg.Seed,
//     fc.RandomSeed, a `seed` parameter…), a constant, or another
//     sanctioned stream (a draw such as p.Uint64()); neither argument may
//     contain calls other than conversions and rng-stream methods.
//
// Seeding inside an unordered map or channel range needs no rule here:
// maprange rejects the range itself.
var RNGPurity = &Analyzer{
	Name: "rngpurity",
	Doc:  "forbid wall-clock and unseeded/misseeded randomness in deterministic packages",
	Run:  runRNGPurity,
}

// bannedImports are rejected in deterministic packages.
var bannedImports = map[string]string{
	"math/rand":    "shared global generator, not reproducible across Go releases",
	"math/rand/v2": "process-seeded generator, not reproducible",
}

// bannedTimeFuncs are the wall-clock entry points rejected in
// deterministic packages.
var bannedTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runRNGPurity(pass *Pass) {
	for _, f := range pass.Pkg.Syntax {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, bad := bannedImports[path]; bad {
				pass.Reportf(imp.Pos(), "import of %s: %s; use %s streams instead", path, why, pass.Cfg.RNGPackage)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				pass.checkRNGCall(call)
			}
			return true
		})
	}
}

// checkRNGCall vets one call: banned time calls, and seeding calls.
func (pass *Pass) checkRNGCall(call *ast.CallExpr) {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch {
	case fn.Pkg().Path() == "time" && bannedTimeFuncs[fn.Name()]:
		pass.Reportf(call.Pos(), "call to time.%s: wall-clock input breaks run reproducibility", fn.Name())
	case fn.Pkg().Path() == pass.Cfg.RNGPackage && (fn.Name() == "New" || fn.Name() == "Seed"):
		if len(call.Args) >= 1 && !pass.seedDerived(call.Args[0]) {
			pass.Reportf(call.Args[0].Pos(),
				"%s.%s seed argument %q is not derived from a seed value: derive every stream from (run seed, entity id) or an existing stream",
				fn.Pkg().Name(), fn.Name(), exprString(call.Args[0]))
		}
		if len(call.Args) >= 2 && !pass.pureStreamArg(call.Args[1]) {
			pass.Reportf(call.Args[1].Pos(),
				"%s.%s stream argument %q contains an impure call: use the entity id (and constants) only",
				fn.Pkg().Name(), fn.Name(), exprString(call.Args[1]))
		}
	}
}

// seedDerived reports whether e is acceptably seed-derived: a constant,
// a seed-named identifier/field, a sanctioned-stream method call
// (a draw from another stream), a conversion of one of those, or an
// arithmetic combination in which at least one operand is seed-derived
// and the rest are pure.
func (pass *Pass) seedDerived(e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := pass.Pkg.Info.Types[e]; ok && tv.Value != nil {
		return true // constant expression
	}
	switch v := e.(type) {
	case *ast.Ident:
		return hasSeedName(v.Name)
	case *ast.SelectorExpr:
		return hasSeedName(v.Sel.Name)
	case *ast.UnaryExpr:
		return pass.seedDerived(v.X)
	case *ast.BinaryExpr:
		return (pass.seedDerived(v.X) && pass.pureStreamArg(v.Y)) ||
			(pass.pureStreamArg(v.X) && pass.seedDerived(v.Y))
	case *ast.CallExpr:
		if pass.isConversion(v) && len(v.Args) == 1 {
			return pass.seedDerived(v.Args[0])
		}
		return pass.isRNGStreamCall(v)
	}
	return false
}

// pureStreamArg reports whether e is free of calls other than
// conversions and sanctioned-stream methods: identifiers (entity ids),
// constants, arithmetic over them.
func (pass *Pass) pureStreamArg(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pass.isConversion(call) || pass.isRNGStreamCall(call) {
			return true
		}
		pure = false
		return false
	})
	return pure
}

// isConversion reports whether call is a type conversion (uint64(x)).
func (pass *Pass) isConversion(call *ast.CallExpr) bool {
	tv, ok := pass.Pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// isRNGStreamCall reports whether call invokes a function or method of
// the sanctioned RNG package (p.Uint64(), rng.New(...)):
// deriving new streams from existing ones is the sanctioned pattern.
func (pass *Pass) isRNGStreamCall(call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Pkg.Info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pass.Cfg.RNGPackage
}

// exprString renders a short source form of e for diagnostics.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}
