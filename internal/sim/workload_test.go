package sim

import (
	"math"
	"strings"
	"testing"

	"cbar/internal/routing"
	"cbar/internal/stats"
	"cbar/internal/topology"
)

// TestNewWorkloadNamesAndPatterns resolves every workload-engine family
// against the tiny topology.
func TestNewWorkloadNamesAndPatterns(t *testing.T) {
	tp := topology.MustNew(Tiny.Params())
	for _, w := range []Workload{
		HotspotUN(0.2, 8),
		ShiftPerm(5),
		ComplementPerm(),
		TornadoPerm(),
		UN().WithBurst(50, 200, 0),
		UN().WithBurst(50, 200, 0.8),
		ADV(1).WithSkew(0.1, 0.5),
		HotspotUN(0.2, 8).WithBurst(30, 90, 0),
	} {
		if w.Name() == "" {
			t.Fatal("empty workload name")
		}
		if _, err := w.Pattern(tp); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
	}
	if !strings.Contains(UN().WithBurst(50, 200, 0).Name(), "burst") {
		t.Fatal("burst suffix missing from name")
	}
	if !strings.Contains(UN().WithSkew(0.1, 0.5).Name(), "skew") {
		t.Fatal("skew suffix missing from name")
	}
	// Degenerate parameters surface as construction errors.
	if _, err := HotspotUN(2, 8).Pattern(tp); err == nil {
		t.Fatal("hotspot frac 2 accepted")
	}
	if _, err := ShiftPerm(0).Pattern(tp); err == nil {
		t.Fatal("shift 0 accepted")
	}
}

// TestRunSteadyNewWorkloads runs each new workload end to end at tiny
// scale: traffic must flow and accepted throughput track the offered
// load (all are admissible at 10% on the tiny system except tornado,
// which funnels whole groups onto single global links under MIN-like
// loads — it only needs to deliver).
func TestRunSteadyNewWorkloads(t *testing.T) {
	t.Parallel()
	for _, w := range []Workload{
		HotspotUN(0.2, 8),
		ShiftPerm(5),
		TornadoPerm(),
		UN().WithBurst(20, 60, 0),
		UN().WithSkew(0.1, 0.5),
	} {
		r, err := RunSteadyBudget(tinyCfg(routing.Base), w, 0.1, Budget{Warmup: 600, Measure: 600, Seeds: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if r.Delivered == 0 {
			t.Fatalf("%s: nothing delivered", w.Name())
		}
		if w.Kind != Tornado && math.Abs(r.Accepted-0.1) > 0.03 {
			t.Errorf("%s: accepted %.3f, offered 0.1", w.Name(), r.Accepted)
		}
		if r.Workload != w.Name() {
			t.Errorf("result workload %q != %q", r.Workload, w.Name())
		}
	}
}

// TestBurstyInjectionIsBursty: at equal aggregate load, the on-off
// arrival process must produce a visibly heavier latency tail than
// steady Bernoulli injection on the same system (queues build during
// bursts), while the delivered volume stays comparable.
func TestBurstyInjectionIsBursty(t *testing.T) {
	t.Parallel()
	const load = 0.3
	steady, err := RunSteadyBudget(tinyCfg(routing.Base), UN(), load, Budget{Warmup: 800, Measure: 1500, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := RunSteadyBudget(tinyCfg(routing.Base), UN().WithBurst(40, 120, 0), load, Budget{Warmup: 800, Measure: 1500, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if float64(bursty.Delivered) < 0.7*float64(steady.Delivered) {
		t.Fatalf("bursty delivered %d far below steady %d", bursty.Delivered, steady.Delivered)
	}
	if bursty.P99 <= steady.P99 {
		t.Errorf("bursty P99 %d not above steady P99 %d: bursts not visible in the tail",
			bursty.P99, steady.P99)
	}
}

// TestSweepSteadyMatchesRunSteady: a sweep point must be identical to
// the standalone run at the same load (same seeds, same reduction).
func TestSweepSteadyMatchesRunSteady(t *testing.T) {
	t.Parallel()
	c := tinyCfg(routing.Base)
	loads := []float64{0.1, 0.3}
	sw, err := SweepSteadyBudget(c, UN(), loads, Budget{Warmup: 400, Measure: 400, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw) != 2 || sw[0].Load != 0.1 || sw[1].Load != 0.3 {
		t.Fatalf("sweep shape wrong: %+v", sw)
	}
	for i, l := range loads {
		single, err := RunSteadyBudget(c, UN(), l, Budget{Warmup: 400, Measure: 400, Seeds: 2})
		if err != nil {
			t.Fatal(err)
		}
		if sw[i] != single {
			t.Errorf("load %.1f: sweep %+v != single %+v", l, sw[i], single)
		}
	}
}

// TestSweepSteadyValidation mirrors RunSteadyBudget's window validation.
func TestSweepSteadyValidation(t *testing.T) {
	c := tinyCfg(routing.Min)
	if _, err := SweepSteadyBudget(c, UN(), nil, Budget{Warmup: 100, Measure: 100, Seeds: 1}); err == nil {
		t.Fatal("empty grid accepted")
	}
	if _, err := SweepSteadyBudget(c, UN(), []float64{0.1}, Budget{Warmup: -1, Measure: 100, Seeds: 1}); err == nil {
		t.Fatal("negative warmup accepted")
	}
	if _, err := SweepSteadyBudget(c, UN(), []float64{0.1}, Budget{Warmup: 100, Measure: 0, Seeds: 1}); err == nil {
		t.Fatal("zero measure accepted")
	}
}

// TestReduceSteadyExactPercentiles: reduction must take percentiles
// from the merged distribution, not average per-seed percentiles. Two
// synthetic seeds with disjoint latency clusters make the difference
// unmistakable: averaging per-seed P99s would land between the
// clusters, the merged P99 inside the upper one.
func TestReduceSteadyExactPercentiles(t *testing.T) {
	h1 := stats.NewHistogram(1024)
	h2 := stats.NewHistogram(1024)
	for i := 0; i < 1000; i++ {
		h1.Add(10) // seed 1: all fast
		h2.Add(500)
	}
	rs := []SteadyResult{{Seeds: 1}, {Seeds: 1}}
	out := reduceSteady(rs, []*stats.Histogram{h1, h2})
	if out.P99 != 500 {
		t.Fatalf("merged P99 = %d, want 500 (averaging would give 255)", out.P99)
	}
	if out.P50 != 10 {
		t.Fatalf("merged P50 = %d, want 10", out.P50)
	}
	if out.AvgLatency != 255 {
		t.Fatalf("merged mean %.1f, want 255", out.AvgLatency)
	}
	if out.Seeds != 2 {
		t.Fatalf("seeds %d", out.Seeds)
	}
}

// TestReduceSteadyOverflowFrac: overflowed samples surface as a
// fraction on the reduced result, and the saturated percentile pins to
// the histogram cap.
func TestReduceSteadyOverflowFrac(t *testing.T) {
	h1 := stats.NewHistogram(100)
	h2 := stats.NewHistogram(100)
	for i := 0; i < 90; i++ {
		h1.Add(10)
		h2.Add(10)
	}
	for i := 0; i < 10; i++ {
		h1.Add(5000) // 10% of seed 1 beyond the cap
		h2.Add(10)
	}
	out := reduceSteady([]SteadyResult{{}, {}}, []*stats.Histogram{h1, h2})
	if math.Abs(out.OverflowFrac-0.05) > 1e-9 {
		t.Fatalf("OverflowFrac %.4f, want 0.05", out.OverflowFrac)
	}
	if out.P99 != 100 {
		t.Fatalf("saturated P99 = %d, want the cap 100", out.P99)
	}
}

// TestTransientBurstySmoke: the transient harness accepts a bursty
// pre-switch workload (the arrival process rides through the pattern
// switch).
func TestTransientBurstySmoke(t *testing.T) {
	t.Parallel()
	r, err := RunTransient(tinyCfg(routing.Base), UN().WithBurst(30, 90, 0), ADV(1), 0.25, transientBudget(800, 100, 300, 20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Times) == 0 {
		t.Fatal("empty trace")
	}
}

// TestTransientRejectsAfterSourceMismatch: a post-switch workload
// carrying its own arrival-process spec would be silently ignored (the
// pre-switch process drives the whole run), so it must be rejected.
func TestTransientRejectsAfterSourceMismatch(t *testing.T) {
	c := tinyCfg(routing.Base)
	if _, err := RunTransient(c, UN(), ADV(1).WithBurst(50, 200, 0), 0.2, transientBudget(600, 100, 200, 20, 1)); err == nil {
		t.Fatal("after-workload source spec silently dropped")
	}
	// Matching specs on both sides are fine.
	if _, err := RunTransient(c, UN().WithBurst(50, 200, 0), ADV(1).WithBurst(50, 200, 0), 0.2, transientBudget(600, 100, 200, 20, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestSkewWeights pins the weight construction: the skewed set carries
// its share and the weights stay mean-1.
func TestSkewWeights(t *testing.T) {
	w, err := skewWeights(0.1, 0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	var sum, hotSum float64
	hot := 0
	for _, v := range w {
		sum += v
		if v > 1 {
			hot++
			hotSum += v
		}
	}
	if hot != 10 {
		t.Fatalf("%d hot nodes, want 10", hot)
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("weights sum %.3f, want 100 (mean 1)", sum)
	}
	if math.Abs(hotSum-50) > 1e-9 {
		t.Fatalf("hot share %.3f, want 50%%", hotSum)
	}
	for _, bad := range [][2]float64{{0, 0.5}, {1, 0.5}, {0.5, -0.1}, {0.5, 1.1}, {math.NaN(), 0.5}, {0.5, math.NaN()}} {
		if _, err := skewWeights(bad[0], bad[1], 100); err == nil {
			t.Errorf("skewWeights(%v) accepted", bad)
		}
	}
}
