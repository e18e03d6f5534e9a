package lint

import "testing"

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
