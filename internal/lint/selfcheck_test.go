package lint

import (
	"go/types"
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
// accidents: every allocfree registry key must live in a deterministic
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
	for reg, keys := range map[string][]string{
		"HotPath":  cfg.HotPath,
		"ColdPath": cfg.ColdPath,
	} {
		if len(keys) == 0 {
			t.Errorf("%s registry is empty", reg)
		}
		for _, k := range keys {
			if !inDet(k) {
				t.Errorf("%s entry %q is not in a deterministic package", reg, k)
			}
		}
	}
	if len(cfg.PooledSlices) == 0 {
		t.Error("PooledSlices registry is empty")
	}
	for _, r := range cfg.PooledSlices {
		if !inDet(r.Type) {
			t.Errorf("PooledSlices entry %q is not in a deterministic package", r.Type)
		}
		if r.Field == "" {
			t.Errorf("PooledSlices entry %q has an empty field name", r.Type)
		}
	}
	// HotPathMethods holds bare method names, matched per declaration: a
	// fully-qualified key there would never match anything.
	for _, m := range cfg.HotPathMethods {
		if strings.Contains(m, ".") {
			t.Errorf("HotPathMethods entry %q must be a bare method name, not a qualified key", m)
		}
	}
}

// TestRegistryRowsAreLive resolves every registry row against the loaded
// repository. TestDefaultConfigIsCoherent only checks path prefixes, so a
// renamed or deleted function, field or type would silently disable its
// rule; here every function key must name a declared function and every
// field entry must name a field of its type.
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

	// split cuts a type key "<pkgpath>.<Type>" at its last dot into the
	// package path and the type name.
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
	declared := func(key string) bool { return prog.Funcs[key] != nil }
	isField := func(typ, field string) bool {
		tn := typeNamed(typ)
		if tn == nil {
			return false
		}
		obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), field)
		v, ok := obj.(*types.Var)
		return ok && v.IsField()
	}

	for reg, keys := range map[string][]string{
		"HotPath":  cfg.HotPath,
		"ColdPath": cfg.ColdPath,
	} {
		for _, k := range keys {
			if !declared(k) {
				t.Errorf("%s entry %q is not a declared function", reg, k)
			}
		}
	}
	for _, r := range cfg.PooledSlices {
		if !isField(r.Type, r.Field) {
			t.Errorf("PooledSlices entry %s.%s does not name a field of its type", r.Type, r.Field)
		}
	}
}
