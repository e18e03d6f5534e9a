package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cbar"
	"cbar/internal/sim"
)

// tinyStress is small_stress_mix shrunk to Tiny scale: every optional
// path live, a few hundred cycles per point.
func tinyStress() *workload {
	return &workload{
		name:    "tiny_stress",
		scale:   cbar.Tiny,
		algs:    []cbar.Algorithm{cbar.MIN, cbar.PB, cbar.ECtN},
		traffic: "adv+1+burst:20,60", pattern: sim.ADV(1).WithBurst(20, 60, 0),
		loads:  []float64{0.2, 0.6},
		warmup: 300, measure: 500, passes: minRounds,
		workers: 1, setupAlg: cbar.ECtN, setupSamples: 11,
		congestion: true,
		faults:     "random:5%@100,12345+routerdown:7@300+routerup:7@500+retry:3",
	}
}

// tinyParallel is paper_un_par shrunk to Tiny scale on two shard workers.
func tinyParallel() *workload {
	return &workload{
		name:    "tiny_par",
		scale:   cbar.Tiny,
		algs:    []cbar.Algorithm{cbar.Base},
		traffic: "un", pattern: sim.UN(),
		loads:  []float64{0.3},
		warmup: 300, measure: 500, passes: minRounds,
		workers: 2, parallel: true, setupAlg: cbar.Base, setupSamples: 11,
	}
}

var legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that a reported set holds every metric of the
// table exactly once, each with its unit and a legal name.
func checkMetrics(t *testing.T, kind string, defs []metricDef, got map[string]stat) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics reported, table has %d", kind, len(got), len(defs))
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if seen[d.name] {
			t.Errorf("%s: %s is in the table twice", kind, d.name)
		}
		seen[d.name] = true
		if !legalName.MatchString(d.name) {
			t.Errorf("%s: %q is not a legal metric name", kind, d.name)
		}
		s, ok := got[d.name]
		if !ok {
			t.Errorf("%s: %s was not reported", kind, d.name)
			continue
		}
		if s.Unit == "" || s.Unit != d.unit {
			t.Errorf("%s: %s has unit %q, want %q", kind, d.name, s.Unit, d.unit)
		}
		if s.N < 1 {
			t.Errorf("%s: %s has no samples", kind, d.name)
		}
	}
}

// TestSmoke runs one traced and three untraced rounds of the shrunken
// workloads and checks the metric surface and the digest agreement
// between the public API, the untraced driver and the traced driver.
func TestSmoke(t *testing.T) {
	for _, w := range []*workload{tinyStress(), tinyParallel()} {
		t.Run(w.name, func(t *testing.T) {
			rep := w.run(3, 0, "both")
			if rep.Error != "" {
				t.Fatal(rep.Error)
			}
			for _, f := range rep.Failures {
				t.Errorf("failed operation: %s", f)
			}
			// minRounds API rounds, then the traced pass's API, untraced
			// and traced replays (and the one-worker replay when parallel).
			passes := minRounds + 3
			if w.workers > 1 {
				passes++
			}
			if want := passes * rep.Points; rep.Attempted != want || rep.Failed != 0 {
				t.Errorf("attempted %d failed %d, want %d and 0", rep.Attempted, rep.Failed, want)
			}
			if rep.SimDigest == "" {
				t.Error("no sim_digest")
			}
			checkMetrics(t, "end_to_end", endToEndMetrics, rep.EndToEnd)
			checkMetrics(t, "per_layer", perLayerMetrics, rep.PerLayer)
			// Step's callbacks are timed 1 in sampleEvery and scaled up, Step
			// itself on every call: the estimate must fit inside its parent.
			if got := rep.PerLayer["router.step_self_s"].Value; got <= 0 {
				t.Errorf("router.step_self_s %v: the sampled routing and stats spans exceed the Step span that contains them", got)
			}
			if w.workers > 1 && rep.PerLayer["router.par_speedup"].Value <= 0 {
				t.Error("no parallel speedup measured")
			}
		})
	}
}

// TestDigestSeesTheInputs: a different seed moves the loads, so the
// digest must move; the same seed must reproduce it.
func TestDigestSeesTheInputs(t *testing.T) {
	w := tinyStress()
	a, b, c := w.run(3, 0, "0"), w.run(3, 0, "0"), w.run(4, 0, "0")
	for _, r := range []*report{a, b, c} {
		if r.Error != "" {
			t.Fatal(r.Error)
		}
	}
	if a.SimDigest != b.SimDigest {
		t.Errorf("same seed, digests %s and %s", a.SimDigest, b.SimDigest)
	}
	if a.SimDigest == c.SimDigest {
		t.Errorf("seeds 3 and 4 share digest %s", a.SimDigest)
	}
	for i, l := range w.inputs(4).loads {
		if d := l/w.loads[i] - 1; d > loadJitter || d < -loadJitter {
			t.Errorf("load %v jittered to %v, beyond %v", w.loads[i], l, loadJitter)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's tables in
// step: the workloads that are not ungated, and the same metric names and
// units, in the same order.
func TestBenchmarkJSON(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	var ws []*workload
	for _, w := range workloads() {
		if w.ungated == "" {
			ws = append(ws, w)
		}
	}
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the program", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
		if why := spec.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program has %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s %s: better is %q", kind, d.name, got[i].Better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestCompareVerdicts drives -compare over hand-made results: within the
// bound, beyond it, and too noisy to tell.
func TestCompareVerdicts(t *testing.T) {
	mk := func(wall, lo, hi float64) *results {
		e2e := map[string]stat{}
		for _, d := range endToEndMetrics {
			e2e[d.name] = stat{Value: 1, Min: 1, Max: 1, N: 3, Unit: d.unit}
		}
		e2e["wall_s"] = stat{Value: wall, Min: lo, Max: hi, N: 3, Unit: "s", Samples: []float64{lo, wall, hi}}
		return &results{Commit: "test", Workloads: []*report{{Workload: "w", Seed: 1, SimDigest: "abc", EndToEnd: e2e}}}
	}
	dir := t.TempDir()
	write := func(name string, r *results) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(1.00, 0.99, 1.01))
	spec := filepath.Join("..", "BENCHMARK.json")
	for _, tc := range []struct {
		name      string
		b         *results
		want      string
		wantWorse bool
	}{
		{"same", mk(1.02, 1.01, 1.03), "ok", false},
		{"slower", mk(1.50, 1.49, 1.51), "worse", true},
		{"noisy", mk(1.50, 1.00, 2.00), "unresolved", false},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, write(tc.name+".json", tc.b), spec)
		if err != nil {
			t.Fatal(err)
		}
		var row string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "wall_s") {
				row = line
			}
		}
		if !strings.HasSuffix(strings.TrimSpace(row), tc.want) || worse != tc.wantWorse {
			t.Errorf("%s: row %q (worse=%v), want verdict %s (worse=%v)", tc.name, row, worse, tc.want, tc.wantWorse)
		}
	}
}
