package lint

import "testing"

// BenchmarkDetlintSelf measures one full detlint invocation over the
// repository: one go list (its compiles come from the build cache after
// the first iteration), then a source type-check of each registry
// package, imports read from export data, shared by the two analyzers.
// It exists to keep the suite's cost profile honest: a loader change that
// type-checks an import from source, or an analyzer change that
// re-type-checks per analyzer, shows up here long before the CI gate
// feels slow.
func BenchmarkDetlintSelf(b *testing.B) {
	for b.Loop() {
		diags, err := Run(moduleDir, DefaultConfig(), "./...")
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("repository is not clean: %v", diags)
		}
	}
}
