package lint

import (
	"path/filepath"
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
// accidents: every deterministic package and the RNG package must be a
// package of this module with Go source, since a typoed path would
// silently disable the rules for it.
func TestDefaultConfigIsCoherent(t *testing.T) {
	cfg := DefaultConfig()
	for _, path := range append(slices.Clone(cfg.DeterministicPkgs), cfg.RNGPackage) {
		rel, ok := strings.CutPrefix(path, "cbar/")
		var src []string
		if ok {
			src, _ = filepath.Glob(filepath.Join(moduleDir, rel, "*.go"))
		}
		if len(src) == 0 {
			t.Errorf("registry package %q is not a package of this module", path)
		}
	}
}
