package lint

import (
	"path/filepath"
	"testing"
)

// TestLoadXTestThroughTestVariants pins the loader against the go tool's
// test build on testdata/xtest, a module of its own: a's external test
// calls an export_test.go method on a value it gets from b, which
// imports a. That type-checks only when b is the variant recompiled
// against a's with-tests package, as `go test` builds it. c has external
// tests only, so go list gives it no with-tests variant and the loader
// checks c's own listing. Both external tests are analysed, not skipped:
// their map ranges are reported.
func TestLoadXTestThroughTestVariants(t *testing.T) {
	dir := filepath.Join("testdata", "xtest")
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 || pkgs[0].Path != "xtest/a" || pkgs[1].Path != "xtest/b" || pkgs[2].Path != "xtest/c" {
		t.Fatalf("loaded %d packages, want xtest/a, xtest/b and xtest/c", len(pkgs))
	}
	cfg := &Config{DeterministicPkgs: []string{"xtest/a", "xtest/c"}}
	diffWants(t, filepath.Join(dir, "a"), RunAnalyzers(pkgs[0], cfg, []*Analyzer{MapRange}))
	diffWants(t, filepath.Join(dir, "c"), RunAnalyzers(pkgs[2], cfg, []*Analyzer{MapRange}))
}
