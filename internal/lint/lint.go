// Package lint implements detlint, a static-analysis suite that
// mechanically enforces the engine's determinism contracts.
//
// The simulator's headline promise — bit-identical traces at every
// worker count and across commits — is guarded dynamically by the
// differential harness, FuzzEngine, the race job, the goldens and the
// allocation and work-count gates. Those catch a violation on the
// inputs they run. detlint keeps only the rules that catch a defect
// none of them fails on, each pinned by a fixture case cut down from
// such a defect seeded in the real code:
//
//   - maprange: no `range` over a map or a channel in the deterministic
//     packages, test files included. Rejecting the range covers every
//     order-sensitive effect in its body (float accumulation, stream
//     seeding, output rows) at once, on paths no golden pins — a
//     figure's rows in map order. There is no escape hatch: sort the
//     keys.
//   - rngpurity: no math/rand, no time.Now, and no rng seeding whose
//     seed argument is not derived from (run seed, entity id) — a
//     wall-clock cap that no test run reaches is a finding.
//
// One whole-program analyzer (see program.go) walks the call graph
// across package boundaries:
//
//   - allocfree: no function reachable from a hot-path root may
//     heap-allocate in steady state, unless the construct is pooled or
//     carries `//lint:alloc` — an allocation in a mechanism or on a path
//     no gated benchmark row runs is a finding.
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

// Analyzers is the per-package half of the detlint suite, in execution
// order.
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

	// --- allocfree registries (see allocfree.go) ---

	// HotPath lists the function keys forming the zero-steady-state-
	// allocation hot path; everything reachable from them is scanned.
	HotPath []string

	// HotPathMethods lists method names treated as hot-path roots on any
	// receiver declared in a deterministic package (the Algorithm hook
	// surface plus BeginCycle and NextAlgCycle) — new algorithm
	// implementations inherit the rule without a config edit.
	HotPathMethods []string

	// ColdPath lists reviewed cold boundaries (fault application,
	// invariant sweeps): hot-path reachability stops there.
	ColdPath []string

	// PooledSlices lists slice fields with pooled backing arrays:
	// appending to them reuses steady-state capacity and is exempt.
	PooledSlices []FieldRef
}

// IsDeterministic reports whether pkg path is under contract.
func (c *Config) IsDeterministic(path string) bool {
	for _, p := range c.DeterministicPkgs {
		if path == p {
			return true
		}
	}
	return false
}

// DefaultConfig returns the registry of determinism contracts for this
// repository. It is the single place the contracts live; doc.go's
// "Determinism contracts" section documents each entry.
func DefaultConfig() *Config {
	const (
		router  = "cbar/internal/router"
		traffic = "cbar/internal/traffic"
	)
	return &Config{
		DeterministicPkgs: []string{
			"cbar/internal/router",
			"cbar/internal/routing",
			"cbar/internal/sim",
			"cbar/internal/traffic",
			"cbar/internal/core",
			"cbar/internal/topology",
		},
		RNGPackage: "cbar/internal/rng",

		// --- allocfree (see allocfree.go) ---

		// The zero-steady-state-allocation roots: the cycle steppers
		// (everything per-cycle hangs off Step), steady-state injection,
		// and the per-cycle traffic driver.
		HotPath: []string{
			router + ".Network.Step",
			router + ".Network.inject",
			traffic + ".Injector.Cycle",
			// The elision horizon queries run once per quiet span (or
			// measurement bucket) on the stepping path; they must stay
			// allocation-free like the steppers they stand in for.
			router + ".Network.ElideHorizon",
			router + ".Network.NextEventCycle",
			traffic + ".Injector.NextArrival",
		},
		// The Algorithm hook surface runs per packet inside the route,
		// allocation and link phases; BeginCycle hosts the per-cycle group
		// exchanges and NextAlgCycle is the per-span elision horizon query.
		HotPathMethods: []string{
			"Route", "OnHead", "OnArrive", "OnDequeue", "OnGrant",
			"BeginCycle", "NextAlgCycle",
		},
		// Reviewed cold boundaries: fault application runs only when a
		// plan event or kill is due, and the invariant sweeps are
		// debug/test machinery.
		ColdPath: []string{
			router + ".Network.applyFaults",
			router + ".Network.CheckInvariants",
		},
		// Slice fields with pooled backing arrays: appends reuse
		// steady-state capacity (each is compacted with [:0] or popped at
		// its drain point, never reallocated per cycle).
		PooledSlices: []FieldRef{
			{Type: router + ".netShard", Field: "outbox"},
			{Type: router + ".netShard", Field: "delivered"},
			{Type: router + ".netShard", Field: "pendingKills"},
			{Type: router + ".netShard", Field: "allocList"},
			{Type: router + ".netShard", Field: "freePkts"},
			{Type: router + ".fifo", Field: "buf"},
			{Type: traffic + ".retransmitter", Field: "heap"},
			{Type: traffic + ".calendar", Field: "heap"},
			{Type: traffic + ".laChunk", Field: "out"},
		},
	}
}

// Run loads the packages matched by patterns under dir and applies the
// full suite — the per-package analyzers to each deterministic package
// and allocfree to the cross-package call graph — returning the findings
// sorted by position. Packages are loaded and type-checked exactly once,
// shared by all analyzers.
func Run(dir string, cfg *Config, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if !cfg.IsDeterministic(pkg.Path) {
			continue
		}
		diags = append(diags, RunAnalyzers(pkg, cfg, Analyzers)...)
	}
	diags = append(diags, AllocFree(NewProgram(pkgs, cfg))...)
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

// funcKey canonicalizes a function or method for the Config registries:
// "<pkgpath>.<func>" for package functions, "<pkgpath>.<Recv>.<method>"
// for methods (pointer receivers are stripped; interface methods use the
// interface type's name).
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			obj := named.Obj()
			if obj.Pkg() != nil {
				return obj.Pkg().Path() + "." + obj.Name() + "." + fn.Name()
			}
			return obj.Name() + "." + fn.Name()
		}
		// Receiver is not a named type (e.g. an unnamed interface).
		if fn.Pkg() != nil {
			return fn.Pkg().Path() + ".?." + fn.Name()
		}
		return "?." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

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

// declKey returns funcKey for a declaration, via its Defs entry.
func declKey(info *types.Info, d *ast.FuncDecl) string {
	if fn, ok := info.Defs[d.Name].(*types.Func); ok {
		return funcKey(fn)
	}
	return d.Name.Name
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// hasSeedName reports whether an identifier names a seed by convention
// (contains "seed", case-insensitive): net.seed, fc.RandomSeed, seed.
func hasSeedName(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
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
