// Package lint implements detlint, a static-analysis suite that
// mechanically enforces the engine's determinism contracts.
//
// The simulator's headline promise — bit-identical traces at every
// worker count and across commits — is guarded dynamically by the
// equivalence tests and CheckInvariants sweeps. Those catch a violation
// after it happens, on some input. The analyzers here enforce the
// ordering rules at the source level instead, so a violation is a build
// break:
//
//   - maprange: no `range` over a map or a channel in the deterministic
//     packages unless the statement carries a `//lint:ordered <reason>`
//     annotation proving the iteration order does not escape — which
//     covers every order-sensitive effect in the body (float
//     accumulation, stream seeding, output rows) at once.
//   - rngpurity: no math/rand, no time.Now, and no rng seeding whose
//     seed argument is not derived from (run seed, entity id).
//   - sequentialpoint: the registered barrier-only functions (fault
//     event application, Alg.BeginCycle, delivery/notification replay)
//     may only be called from their registered sequential-point call
//     sites, never from inside the parallel phase call graphs (that
//     half walks the whole program's call graph, see below).
//   - fieldenc: the accounting fields (occ, credit counters, active-set
//     membership, …) may only be assigned by their sanctioned mutator
//     functions.
//   - annotation: every `//lint:ordered` annotation must carry a reason
//     and must be attached to a map or channel range statement — stale
//     annotations are findings, not dead weight.
//
// Whole-program analyzers (see program.go) extend the suite across
// package boundaries — sequentialpoint's reachability check and two
// dataflow analyzers:
//
//   - shardisolation: no write reachable from a parallel root may target
//     state that is not provably shard-local, unless it flows through a
//     registered cross-shard conduit (there is no annotation).
//   - allocfree: no function reachable from a hot-path root may
//     heap-allocate in steady state, unless the construct is pooled or
//     carries `//lint:alloc`.
//
// The suite is configuration-driven (Config) so the fixture tests can
// point the same analyzers at small synthetic packages, and so the
// deterministic-package set can grow (the multi-topology backends will
// join it) without touching analyzer code. cmd/detlint runs the suite
// over the repository and is a hard CI gate.
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

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	// Tests reports whether the analyzer also covers _test.go files.
	// The structural analyzers (sequentialpoint, fieldenc) cover only
	// non-test code: tests run at sequential points by construction and
	// routinely poke state to build scenarios.
	Tests bool
	Run   func(*Pass)
}

// Analyzers is the detlint suite, in execution order.
var Analyzers = []*Analyzer{
	MapRange,
	RNGPurity,
	SequentialPoint,
	FieldEnc,
	AnnotationCheck,
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

// files yields the syntax trees the analyzer covers (skipping test files
// unless the analyzer opts in).
func (p *Pass) files(fn func(f *ast.File)) {
	for i, f := range p.Pkg.Syntax {
		if p.Pkg.TestFile[i] && !p.Analyzer.Tests {
			continue
		}
		fn(f)
	}
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

	// BarrierOnly maps a function key (see funcKey) to the keys of its
	// sanctioned callers. Any other call site — and in particular any
	// call reachable from a parallel phase — is a finding.
	BarrierOnly map[string][]string

	// ParallelRoots lists the function keys whose call graphs form the
	// parallel sections — the worker bodies; what they call is found by
	// walking the program's call graph: nothing reachable from them may
	// call a barrier-only function.
	ParallelRoots []string

	// ParallelRootMethods lists method *names* treated as parallel roots
	// on any receiver type (the Algorithm hook surface: Route, OnHead,
	// …). New algorithm implementations inherit the rule without a
	// config edit.
	ParallelRootMethods []string

	// Fields lists the encapsulated accounting fields and their
	// sanctioned writer functions.
	Fields []FieldRule

	// --- shardisolation registries (see shardiso.go) ---

	// GlobalStateTypes lists named types ("<pkgpath>.<TypeName>") that
	// are globally shared across shards: a receiver or parameter of such
	// a type is never assumed shard-local.
	GlobalStateTypes []string

	// ShardTables lists slice/array fields partitioned by the shard id
	// ranges (Network.Routers, Network.nics, …): indexing one with a
	// locally-derived index yields shard-local state.
	ShardTables []FieldRef

	// CrossShardFields lists fields whose values point across the shard
	// boundary (a packet's destination router, an input port's upstream
	// coordinates): indexing a shard table with one reaches another
	// shard.
	CrossShardFields []FieldRef

	// ShardConduits lists the reviewed cross-shard channels (the mailbox
	// append, the GroupDirty flag write): their bodies are exempt from
	// the write check and stop parallel-root reachability.
	ShardConduits []string

	// IndexPreservingFuncs lists pure index-mapping functions (topology
	// accessors): local arguments in, local result out.
	IndexPreservingFuncs []string

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

// FieldRule declares one encapsulated field: assignments to
// Type.Field are only sanctioned inside the Writers functions.
type FieldRule struct {
	// Type is the owning named type's key: "<pkgpath>.<TypeName>".
	Type string
	// Field is the field name.
	Field string
	// Writers are the funcKey()s of the sanctioned mutators.
	Writers []string
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
		routing = "cbar/internal/routing"
		traffic = "cbar/internal/traffic"
		core    = "cbar/internal/core"
		topo    = "cbar/internal/topology"
	)
	// The Algorithm hook surface: the per-packet methods the route,
	// allocation and link phases call.
	hooks := []string{"Route", "OnHead", "OnArrive", "OnDequeue", "OnGrant"}
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
		// The sequential-point registry. Keys and callers are funcKey()
		// strings: "<pkgpath>.<Recv>.<method>" / "<pkgpath>.<func>".
		//
		// The replay/apply family runs at the handle barrier of Step, the
		// one cycle body (the caller coordinates, forked workers parked);
		// BeginCycle is the interface method hosting the group-wide
		// exchanges at the same barrier; mergeOutboxes is the cycle barrier
		// itself. Calling any of them from the parallel phase graphs
		// (ParallelRoots below) would race or reorder cross-shard effects.
		BarrierOnly: map[string][]string{
			router + ".Network.replayDeliveries":    {router + ".Network.Step"},
			router + ".Network.replayNotifications": {router + ".Network.Step"},
			router + ".Network.applyFaults":         {router + ".Network.Step"},
			router + ".Network.applyFaultEvent":     {router + ".Network.applyFaults"},
			router + ".Network.mergeOutboxes":       {router + ".Network.Step"},
			router + ".Algorithm.BeginCycle":        {router + ".Network.Step"},
			// WakeGroup re-arms parked routers from algorithm code: it
			// writes the owning shard's route set, so it belongs to the
			// BeginCycle barrier, where ECtN's combine calls it (fault
			// application, at the same barrier, wakes every group).
			router + ".Network.WakeGroup": {routing + ".ectnAlg.BeginCycle", router + ".Network.applyFaults"},
			// Quiet-cycle elision (elide.go) runs between Steps, with all
			// workers quiescent: the horizon queries read cross-shard
			// state (rings, active sets, the injector RNG) and ElideTo
			// moves the clock itself. Their only sanctioned callers are
			// Drain and sim's one driver, point.advance (elideStep its jump).
			router + ".Network.ElideTo":        {router + ".Network.Drain", "cbar/internal/sim.elideStep"},
			router + ".Network.ElideHorizon":   {router + ".Network.Drain", "cbar/internal/sim.elideStep"},
			router + ".Network.NextEventCycle": {router + ".Network.ElideHorizon"},
			traffic + ".Injector.NextArrival":  {"cbar/internal/sim.elideStep"},
			"cbar/internal/sim.elideStep":      {"cbar/internal/sim.point.advance"},
			traffic + ".Injector.Cycle":        {"cbar/internal/sim.point.advance"},
			// The one Algorithm implementation with a BeginCycle body: it
			// is reached only through the interface dispatch above, never
			// called directly inside package routing.
			routing + ".ectnAlg.BeginCycle": {},
		},
		// The two worker bodies of a Step (parallel.go). Everything they
		// run — event handling, NIC drain, the route, allocation and link
		// phases, the fault escape — is reached from them through the
		// call graph. The injector's lookahead draws node chunks of a
		// window on several cores (source.go), each through its own
		// nodes' Source state only.
		ParallelRoots: []string{
			router + ".Network.handleShardBucket",
			router + ".Network.stepShard",
			traffic + ".lookahead.draw",
		},
		// Any method with one of these names is a parallel root wherever
		// it is declared: the Algorithm hook surface runs inside the
		// phase graphs, so future algorithm implementations inherit the
		// rule with no config edit.
		ParallelRootMethods: hooks,
		// The accounting fields and their sanctioned mutators. occ is
		// written only by occDelta; credits/outFree only by the grant
		// path, the event handler and the fault kills' unreserve;
		// active-set membership only by the set's own methods,
		// and the calendar's chunk pool and bucket fill counts only by the
		// calendar's (CheckInvariants audits their sum).
		// The parking state has one writer pair each: parked is set by the
		// park pass of stepShard and cleared by wake (the single re-arm
		// point — a second clearing site would be a wake the documented
		// wake set does not list); parkable is the per-cycle verdict
		// routePhase computes and a grant revokes. The minimal-port memo
		// is written where it is computed and cleared on enqueue, the
		// destination-group memo where it is computed and at newPacket.
		// The head table moves only where a head does: the allocator
		// nominates on a valid request without looking at the packet.
		Fields: []FieldRule{
			{Type: router + ".Router", Field: "parked",
				Writers: []string{router + ".Network.stepShard", router + ".Router.wake"}},
			{Type: router + ".Router", Field: "parkable",
				Writers: []string{router + ".Router.routePhase", router + ".Router.grant"}},
			{Type: router + ".Packet", Field: "minOut",
				Writers: []string{router + ".Router.MinimalOut", router + ".Packet.resetQueueState"}},
			{Type: router + ".Packet", Field: "dstGroup",
				Writers: []string{router + ".Router.DstGroup", router + ".netShard.newPacket"}},
			{Type: router + ".Router", Field: "heads",
				Writers: []string{router + ".Router.enqueue", router + ".Router.dequeue"}},
			{Type: router + ".Router", Field: "req",
				Writers: []string{router + ".Router.routePhase", router + ".Router.grant", router + ".Router.dequeue"}},
			{Type: router + ".Router", Field: "unroutedHeads",
				Writers: []string{router + ".newRouter"}},
			{Type: router + ".Router", Field: "grantable",
				Writers: []string{router + ".newRouter"}},
			{Type: router + ".outPort", Field: "occ",
				Writers: []string{router + ".Router.occDelta"}},
			{Type: router + ".outPort", Field: "credits",
				Writers: []string{router + ".newRouter", router + ".Router.grant", router + ".Network.handle",
					router + ".Router.unreserve"}},
			{Type: router + ".outPort", Field: "outFree",
				Writers: []string{router + ".newRouter", router + ".Router.grant", router + ".Network.handle",
					router + ".Router.unreserve"}},
			{Type: router + ".activeSet", Field: "words",
				Writers: []string{router + ".activeSet.add", router + ".activeSet.drop", router + ".activeSet.clear"}},
			{Type: router + ".activeSet", Field: "count",
				Writers: []string{router + ".activeSet.add", router + ".activeSet.drop", router + ".activeSet.clear"}},
			{Type: router + ".netShard", Field: "freeChunks",
				Writers: []string{router + ".netShard.extend", router + ".netShard.release"}},
			{Type: router + ".calBucket", Field: "n",
				Writers: []string{router + ".netShard.push"}},
		},

		// --- shardisolation (see shardiso.go) ---

		// The Network (one instance, back-pointed from every router) and
		// the GroupDirty flags (one instance, written from every shard,
		// each to its own groups' bytes) are the globally shared types:
		// holding one never proves locality.
		GlobalStateTypes: []string{
			router + ".Network",
			core + ".GroupDirty",
		},
		// The id-partitioned tables: shards own contiguous router, node
		// and group ranges, so indexing with a locally-derived id lands
		// in the executing shard.
		ShardTables: []FieldRef{
			{Type: router + ".Network", Field: "Routers"},
			{Type: router + ".Network", Field: "nics"},
			{Type: router + ".Network", Field: "groups"},
			{Type: router + ".Network", Field: "shards"},
		},
		// Values that point across the shard boundary: a packet's
		// endpoints and the fixed upstream/peer coordinates of ports.
		// Indexing a shard table with one of these is exactly the
		// cross-shard touch the parallel sections must not make.
		CrossShardFields: []FieldRef{
			{Type: router + ".Packet", Field: "Src"},
			{Type: router + ".Packet", Field: "Dst"},
			{Type: router + ".Packet", Field: "DstRouter"},
			{Type: router + ".Packet", Field: "Inter"},
			{Type: router + ".inPort", Field: "upRouter"},
			{Type: router + ".inPort", Field: "upPort"},
			{Type: router + ".outPort", Field: "peerRouter"},
			{Type: router + ".outPort", Field: "peerPort"},
		},
		// The reviewed cross-shard channels. scheduleFrom routes a
		// cross-shard event into the per-(src,dst) mailbox drained at the
		// cycle barrier; GroupDirty.Mark writes the marking group's own
		// flag byte, and a group never spans shards. Direction-1 topology
		// backends must register their equivalents here.
		ShardConduits: []string{
			router + ".Network.scheduleFrom",
			core + ".GroupDirty.Mark",
		},
		// Pure id arithmetic: these map a shard-local id to another id of
		// the same component (a node's router, a router's group, …),
		// never leaving the owning shard (shards hold whole groups).
		IndexPreservingFuncs: []string{
			topo + ".Dragonfly.RouterOfNode",
			topo + ".Dragonfly.ChannelOfNode",
			topo + ".Dragonfly.NodeID",
			topo + ".Dragonfly.GroupOf",
			topo + ".Dragonfly.GroupOfNode",
			topo + ".Dragonfly.PosOf",
			topo + ".Dragonfly.RouterID",
		},

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
		// The hook surface runs per packet inside the phase graphs;
		// BeginCycle hosts the per-cycle group exchanges and NextAlgCycle
		// is the per-span elision horizon query.
		HotPathMethods: append(slices.Clip(hooks), "BeginCycle", "NextAlgCycle"),
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
// and the whole-program analyzers to the cross-package call graph —
// returning the findings sorted by position. Packages are loaded and
// type-checked exactly once, shared by all analyzers; the Program is
// built once and shared by all program analyzers.
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
	prog := NewProgram(pkgs, cfg)
	diags = append(diags, RunProgramAnalyzers(prog, cfg, ProgramAnalyzers)...)
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

// declIndex locates the FuncDecl lexically enclosing a position, per
// file. Function literals attribute to their enclosing declaration.
type declIndex struct {
	fset  *token.FileSet
	decls []*ast.FuncDecl
}

func newDeclIndex(pkg *Package, testsToo bool) *declIndex {
	idx := &declIndex{fset: pkg.Fset}
	for i, f := range pkg.Syntax {
		if pkg.TestFile[i] && !testsToo {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				idx.decls = append(idx.decls, fd)
			}
		}
	}
	return idx
}

// enclosing returns the FuncDecl containing pos, or nil (package-level
// initializer expressions).
func (idx *declIndex) enclosing(pos token.Pos) *ast.FuncDecl {
	for _, d := range idx.decls {
		if d.Pos() <= pos && pos <= d.End() {
			return d
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
