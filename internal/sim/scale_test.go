package sim

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cbar/internal/routing"
)

// TestScaleGrammarListsEveryName: the help text lists every name the
// scale table parses.
func TestScaleGrammarListsEveryName(t *testing.T) {
	listed := strings.Split(ScaleGrammar(), "|")
	for s, name := range scaleNames {
		if !slices.Contains(listed, name) {
			t.Errorf("ScaleGrammar() = %q does not list %q", ScaleGrammar(), name)
		}
		if got, err := ParseScale(name); err != nil || got != Scale(s) {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", name, got, err, Scale(s))
		}
	}
}

func TestDefaultBudgets(t *testing.T) {
	for _, s := range []Scale{Tiny, Small, Paper} {
		b := DefaultBudget(s)
		if b.Warmup <= 0 || b.Measure <= 0 || b.Seeds <= 0 {
			t.Fatalf("%v: bad steady budget %+v", s, b)
		}
		if b.TransientWarmup <= 0 || b.Post <= 0 || b.PostLong < b.Post || b.Bucket <= 0 {
			t.Fatalf("%v: bad transient budget %+v", s, b)
		}
		if len(b.Loads) == 0 {
			t.Fatalf("%v: empty load grid", s)
		}
		for i := 1; i < len(b.Loads); i++ {
			if b.Loads[i] <= b.Loads[i-1] {
				t.Fatalf("%v: loads not increasing", s)
			}
		}
	}
	// The paper budget must match §IV-B: 15000 measured cycles, 10
	// repeats.
	p := DefaultBudget(Paper)
	if p.Measure != 15000 || p.Seeds != 10 {
		t.Fatalf("paper budget %+v", p)
	}
}

func TestTransientAndMixLoads(t *testing.T) {
	if transientLoad(Paper) != 0.2 || mixLoad(Paper) != 0.35 {
		t.Fatal("paper-scale loads must match the paper (0.2 / 0.35)")
	}
	if transientLoad(Small) != 0.2 || mixLoad(Small) != 0.35 {
		t.Fatal("small scale keeps the paper loads (balanced topology)")
	}
	if transientLoad(Tiny) <= 0.2 {
		t.Fatal("tiny scale must raise the transient load (pressure regime)")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		ids[e.ID] = true
	}
	// Every figure of the paper's evaluation must be present.
	for _, want := range []string{"fig5a", "fig5b", "fig5c", "fig6", "fig7", "fig8", "fig9", "fig10a", "fig10b", "via"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	if _, ok := FindExperiment("nope"); ok {
		t.Fatal("FindExperiment found garbage")
	}
}

func TestFig10ThresholdGrids(t *testing.T) {
	un, adv := fig10Thresholds(Paper)
	// Paper: UN sweeps 3..7, ADV sweeps 6..12 around the default of 6.
	if len(un) != 5 || un[0] != 3 || un[len(un)-1] != 7 {
		t.Fatalf("paper UN thresholds %v", un)
	}
	if len(adv) != 7 || adv[0] != 6 || adv[len(adv)-1] != 12 {
		t.Fatalf("paper ADV thresholds %v", adv)
	}
	un, _ = fig10Thresholds(Tiny)
	for _, th := range un {
		if th < 1 {
			t.Fatalf("tiny UN thresholds include %d < 1", th)
		}
	}
}

// TestRunFigVIAOutput is an end-to-end smoke test of the cheapest
// experiment through the registry.
func TestRunFigVIAOutput(t *testing.T) {
	t.Parallel()
	e, ok := FindExperiment("via")
	if !ok {
		t.Fatal("missing via")
	}
	b := DefaultBudget(Tiny)
	b.Seeds = 1
	b.Warmup, b.Measure = 600, 400
	var buf bytes.Buffer
	if err := e.Run(Tiny, b, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean_saturated_counter") {
		t.Fatalf("unexpected output: %s", buf.String())
	}
}

// TestSweepSteadyShape runs a minimal Figure 5 grid through the shared
// steady-table helper and checks the table covers every point, one row
// each, in ascending-load × evaluated-mechanism order whatever order the
// budget lists the loads in.
func TestSweepSteadyShape(t *testing.T) {
	t.Parallel()
	b := Budget{Warmup: 300, Measure: 300, Seeds: 2, Loads: []float64{0.2, 0.1}}
	var buf bytes.Buffer
	if err := runFig5(Tiny, b, &buf, UN(), "shape"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	algos := routing.Evaluated()
	if len(lines) != 2+2*len(algos) || lines[0] != "# shape" || !strings.HasPrefix(lines[1], "load,algo,") {
		t.Fatalf("%d lines, want title, header and %d rows:\n%s", len(lines), 2*len(algos), buf.String())
	}
	for i, row := range lines[2:] {
		want := fmt.Sprintf("%.3f,%s,", []float64{0.1, 0.2}[i/len(algos)], algos[i%len(algos)])
		if !strings.HasPrefix(row, want) {
			t.Errorf("row %d is %q, want prefix %q", i, row, want)
		}
	}
}
