package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenFigures are the experiment ids pinned byte for byte as
// testdata/golden/ID_tiny.csv at the repository root: one load sweep
// over every evaluated mechanism, one grid figure, one transient trace,
// one threshold sweep and the steady and transient ablations, so the figure writers, the transient tracer and the grid
// pool are pinned across commits like the sweeps of cmd/cbar's
// TestGoldenSweeps. CI diffs the same files against `cbar figures`.
// Regenerate with:
//
//	go run ./cmd/cbar figures -scale tiny -seeds 1 -out testdata/golden \
//	    -fig fig5b,fig6,fig7,fig10a,abl-speedup,abl-ectn-period
var goldenFigures = []string{"fig5b", "fig6", "fig7", "fig10a", "abl-speedup", "abl-ectn-period"}

func TestGoldenFigures(t *testing.T) {
	t.Parallel()
	for _, id := range goldenFigures {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, ok := FindExperiment(id)
			if !ok {
				t.Fatalf("unknown experiment %q", id)
			}
			// cbar figures -scale tiny -seeds 1: the scale's default budget
			// with one repeat.
			b := DefaultBudget(Tiny)
			b.Seeds = 1
			var got strings.Builder
			if err := e.Run(Tiny, b, &got); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", id+"_tiny.csv"))
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("golden mismatch for %s:\n--- want\n%s--- got\n%s", id, want, got.String())
			}
		})
	}
}
