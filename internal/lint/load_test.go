package lint

import (
	"path/filepath"
	"testing"
)

// TestLoadXTestThroughTestVariants pins the loader against the go tool's
// test build on testdata/xtest, a module of its own: a's external test
// calls an export_test.go method on a value it gets from b, which
// imports a. That type-checks only when b is the variant recompiled
// against a's with-tests package, as `go test` builds it; and the
// external test is analysed, not skipped — its map range is reported.
func TestLoadXTestThroughTestVariants(t *testing.T) {
	dir := filepath.Join("testdata", "xtest")
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[0].Path != "xtest/a" || pkgs[1].Path != "xtest/b" {
		t.Fatalf("loaded %d packages, want xtest/a and xtest/b", len(pkgs))
	}
	cfg := &Config{DeterministicPkgs: []string{"xtest/a"}}
	diffWants(t, filepath.Join(dir, "a"), RunAnalyzers(pkgs[0], cfg, []*Analyzer{MapRange}))
}
