// Package lint implements detlint, a static-analysis suite that
// mechanically enforces the engine's determinism contracts.
//
// The simulator's headline promise — bit-identical traces at every
// worker count and across commits — is guarded dynamically by the
// differential harness, FuzzEngine, the race job, the goldens, the
// zero-allocation audit and the work-count gate. Those catch a violation
// on the inputs they run. detlint keeps only the rules that catch a defect
// none of them fails on, each pinned by a fixture case cut down from
// such a defect seeded in the real code:
//
//   - maprange: no `range` over a map, a maps iterator or a channel in
//     the deterministic packages, test files included. Rejecting the range covers every
//     order-sensitive effect in its body (float accumulation, stream
//     seeding, output rows) at once, on paths no golden pins — a
//     figure's rows in map order. There is no escape hatch: sort the
//     keys.
//   - rngpurity: no math/rand, no time.Now, and no rng seeding whose
//     seed argument is not derived from (run seed, entity id) — a
//     wall-clock cap that no test run reaches is a finding.
//
// That steady-state stepping allocates nothing is checked by running it,
// not here: internal/sim's TestSteadyStateAllocations drives every
// mechanism and fails on any allocation outside a short table of growth
// statements.
//
// The suite is configuration-driven (Config) so the fixture tests can
// point the same analyzers at small synthetic packages, and so the
// deterministic-package set can grow without touching analyzer code.
// cmd/detlint runs the suite over the repository and is a hard CI gate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package, test files
// included.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers is the detlint suite, in execution order.
var Analyzers = []*Analyzer{
	MapRange,
	RNGPurity,
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Cfg      *Config
	Pkg      *Package
	diags    *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Config parameterizes the suite. DefaultConfig returns the repository's
// real contract registry; fixture tests build small ones of their own.
type Config struct {
	// DeterministicPkgs lists the import paths whose source must obey
	// the determinism contracts. Only these packages are analyzed.
	DeterministicPkgs []string

	// RNGPackage is the import path of the sanctioned generator package
	// (its New/Seed entry points are the seeding calls rngpurity vets).
	RNGPackage string
}

// IsDeterministic reports whether pkg path is under contract.
func (c *Config) IsDeterministic(path string) bool {
	return slices.Contains(c.DeterministicPkgs, path)
}

// DefaultConfig returns the registry of determinism contracts for this
// repository. It is the single place the contracts live; doc.go's
// "Determinism contracts" section documents each entry.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{
			"cbar/internal/router",
			"cbar/internal/routing",
			"cbar/internal/sim",
			"cbar/internal/traffic",
			"cbar/internal/topology",
		},
		RNGPackage: "cbar/internal/rng",
	}
}

// Run loads the deterministic packages matched by patterns under dir and
// applies the analyzers to each, returning the findings sorted by
// position. Each package is type-checked exactly once, shared by all
// analyzers; go list still compiles every matched package, so a compile
// error outside the registry is a load error too.
func Run(dir string, cfg *Config, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := load(dir, cfg.IsDeterministic, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, RunAnalyzers(pkg, cfg, Analyzers)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// RunAnalyzers applies the given analyzers to one package.
func RunAnalyzers(pkg *Package, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Cfg: cfg, Pkg: pkg, diags: &diags}
		a.Run(pass)
	}
	sortDiagnostics(diags)
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// --- shared helpers ---

// calleeFunc resolves the *types.Func a call expression invokes (package
// function, method, or interface method), or nil for indirect calls
// through function values, conversions and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call (pkg.Func).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// hasSeedName reports whether an identifier names a seed by convention
// (contains "seed", case-insensitive): net.seed, fc.RandomSeed, seed.
func hasSeedName(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}
