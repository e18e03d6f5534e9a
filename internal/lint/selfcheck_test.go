package lint

import (
	"go/types"
	"maps"
	"slices"
	"strings"
	"testing"
)

// TestRepositoryIsClean is the meta-test behind the CI gate: the full
// suite, under the real contract registry, must produce zero findings
// over the repository. Any analyzer change that would newly flag
// existing engine code (or any engine change violating a contract)
// fails here before it fails in CI.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	diags, err := Run(moduleDir, DefaultConfig(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestDefaultConfigIsCoherent guards the registry against editing
// accidents: every sanctioned caller of a barrier-only function, every
// parallel root and every field writer must live in a deterministic
// package — a typoed path would silently disable its rule.
func TestDefaultConfigIsCoherent(t *testing.T) {
	cfg := DefaultConfig()
	inDet := func(key string) bool {
		for _, p := range cfg.DeterministicPkgs {
			if len(key) > len(p) && key[:len(p)] == p && key[len(p)] == '.' {
				return true
			}
		}
		return false
	}
	for barrier, callers := range cfg.BarrierOnly {
		if !inDet(barrier) {
			t.Errorf("barrier-only %q is not in a deterministic package", barrier)
		}
		for _, c := range callers {
			if !inDet(c) {
				t.Errorf("sanctioned caller %q of %q is not in a deterministic package", c, barrier)
			}
		}
	}
	for _, r := range cfg.ParallelRoots {
		if !inDet(r) {
			t.Errorf("parallel root %q is not in a deterministic package", r)
		}
	}
	for _, f := range cfg.Fields {
		if !inDet(f.Type) {
			t.Errorf("field rule type %q is not in a deterministic package", f.Type)
		}
		if len(f.Writers) == 0 {
			t.Errorf("field rule %s.%s has no sanctioned writers", f.Type, f.Field)
		}
		for _, w := range f.Writers {
			if !inDet(w) {
				t.Errorf("writer %q of %s.%s is not in a deterministic package", w, f.Type, f.Field)
			}
		}
	}

	// The whole-program registries: every key must resolve inside a
	// deterministic package, or its rule silently never fires.
	keyed := map[string][]string{
		"GlobalStateTypes":     cfg.GlobalStateTypes,
		"ShardConduits":        cfg.ShardConduits,
		"IndexPreservingFuncs": cfg.IndexPreservingFuncs,
		"HotPath":              cfg.HotPath,
		"ColdPath":             cfg.ColdPath,
	}
	for reg, keys := range keyed {
		if len(keys) == 0 {
			t.Errorf("%s registry is empty", reg)
		}
		for _, k := range keys {
			if !inDet(k) {
				t.Errorf("%s entry %q is not in a deterministic package", reg, k)
			}
		}
	}
	fields := map[string][]FieldRef{
		"ShardTables":      cfg.ShardTables,
		"CrossShardFields": cfg.CrossShardFields,
		"PooledSlices":     cfg.PooledSlices,
	}
	for reg, refs := range fields {
		if len(refs) == 0 {
			t.Errorf("%s registry is empty", reg)
		}
		for _, r := range refs {
			if !inDet(r.Type) {
				t.Errorf("%s entry %q is not in a deterministic package", reg, r.Type)
			}
			if r.Field == "" {
				t.Errorf("%s entry %q has an empty field name", reg, r.Type)
			}
		}
	}
	// Root-method registries hold bare method names, matched per
	// declaration: a fully-qualified key here would never match anything.
	for reg, names := range map[string][]string{
		"ParallelRootMethods": cfg.ParallelRootMethods,
		"HotPathMethods":      cfg.HotPathMethods,
	} {
		for _, m := range names {
			for i := 0; i < len(m); i++ {
				if m[i] == '.' {
					t.Errorf("%s entry %q must be a bare method name, not a qualified key", reg, m)
					break
				}
			}
		}
	}
}

// TestRegistryRowsAreLive resolves every registry row against the loaded
// repository. TestDefaultConfigIsCoherent only checks path prefixes, so a
// renamed or deleted function, field or type would silently disable its
// rule; here every function key must name a declared function (an
// interface method resolves through the interface's method set), every
// sanctioned caller must actually call its barrier function, every field
// entry must name a field of its type, and every globally-shared type
// must be declared.
func TestRegistryRowsAreLive(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	cfg := DefaultConfig()
	pkgs, err := Load(moduleDir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram(pkgs, cfg)
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}

	// split cuts a key at its last dot: "<pkgpath>.<Type>" into the
	// package path and the type name, "<pkgpath>.<Type>.<member>" into
	// the type key and the member name.
	split := func(key string) (string, string) {
		i := strings.LastIndex(key, ".")
		if i < 0 {
			return "", key
		}
		return key[:i], key[i+1:]
	}
	// typeNamed resolves a type key to a type declared in non-test code.
	typeNamed := func(key string) *types.TypeName {
		path, name := split(key)
		pkg := byPath[path]
		if pkg == nil {
			return nil
		}
		tn, _ := pkg.Types.Scope().Lookup(name).(*types.TypeName)
		if tn == nil || strings.HasSuffix(prog.Fset.Position(tn.Pos()).Filename, "_test.go") {
			return nil
		}
		return tn
	}
	declared := func(key string) bool {
		if prog.Funcs[key] != nil {
			return true
		}
		typ, method := split(key)
		tn := typeNamed(typ)
		if tn == nil || !types.IsInterface(tn.Type()) {
			return false
		}
		obj, _, _ := types.LookupFieldOrMethod(tn.Type(), false, tn.Pkg(), method)
		_, ok := obj.(*types.Func)
		return ok
	}
	calls := func(caller, callee string) bool {
		for _, e := range prog.Calls[caller] {
			if e.Callee == callee {
				return true
			}
		}
		return false
	}
	isField := func(typ, field string) bool {
		tn := typeNamed(typ)
		if tn == nil {
			return false
		}
		obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), field)
		v, ok := obj.(*types.Var)
		return ok && v.IsField()
	}

	for _, barrier := range slices.Sorted(maps.Keys(cfg.BarrierOnly)) {
		if !declared(barrier) {
			t.Errorf("BarrierOnly key %q is not a declared function", barrier)
		}
		for _, c := range cfg.BarrierOnly[barrier] {
			switch {
			case !declared(c):
				t.Errorf("sanctioned caller %q of %q is not a declared function", c, barrier)
			case !calls(c, barrier):
				t.Errorf("sanctioned caller %q does not call %q", c, barrier)
			}
		}
	}
	for reg, keys := range map[string][]string{
		"ParallelRoots":        cfg.ParallelRoots,
		"HotPath":              cfg.HotPath,
		"ColdPath":             cfg.ColdPath,
		"ShardConduits":        cfg.ShardConduits,
		"IndexPreservingFuncs": cfg.IndexPreservingFuncs,
	} {
		for _, k := range keys {
			if !declared(k) {
				t.Errorf("%s entry %q is not a declared function", reg, k)
			}
		}
	}
	for _, f := range cfg.Fields {
		if !isField(f.Type, f.Field) {
			t.Errorf("Fields entry %s.%s does not name a field of its type", f.Type, f.Field)
		}
		for _, w := range f.Writers {
			if !declared(w) {
				t.Errorf("writer %q of %s.%s is not a declared function", w, f.Type, f.Field)
			}
		}
	}
	for reg, refs := range map[string][]FieldRef{
		"ShardTables":      cfg.ShardTables,
		"CrossShardFields": cfg.CrossShardFields,
		"PooledSlices":     cfg.PooledSlices,
	} {
		for _, r := range refs {
			if !isField(r.Type, r.Field) {
				t.Errorf("%s entry %s.%s does not name a field of its type", reg, r.Type, r.Field)
			}
		}
	}
	for _, g := range cfg.GlobalStateTypes {
		if typeNamed(g) == nil {
			t.Errorf("GlobalStateTypes entry %q is not a declared type", g)
		}
	}
}
