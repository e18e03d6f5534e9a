package lint

import "testing"

// BenchmarkDetlintSelf measures one full detlint invocation over the
// repository: a single load/type-check (the dominant cost) shared by the
// two analyzers. It exists to keep the suite's cost profile honest: an
// analyzer change that re-type-checks per analyzer shows up here long
// before the CI gate feels slow.
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
