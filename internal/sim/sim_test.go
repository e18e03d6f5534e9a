package sim

import (
	"context"
	"math"
	"testing"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/stats"
	"cbar/internal/topology"
	"cbar/internal/traffic"
)

func tinyCfg(a routing.Algo) Config { return NewConfig(Tiny.Params(), a) }

func TestScaleParams(t *testing.T) {
	if p := Paper.Params(); p != (topology.Params{P: 8, A: 16, H: 8}) {
		t.Fatalf("paper params %+v", p)
	}
	if p := Tiny.Params(); p.P < 2 {
		t.Fatalf("tiny params %+v", p)
	}
	for _, s := range []Scale{Tiny, Small, Paper} {
		got, err := ParseScale(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseScale(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScale("galactic"); err == nil {
		t.Fatal("bad scale accepted")
	}
	if Scale(9).String() == "" {
		t.Fatal("unknown scale empty string")
	}
}

// TestScaledOptionsPaperIsTableI: at the paper's scale the scaling must
// reproduce Table I exactly.
func TestScaledOptionsPaperIsTableI(t *testing.T) {
	o := ScaledOptions(Paper.Params())
	if o.BaseTh != 6 || o.HybridTh != 7 || o.CombinedTh != 10 {
		t.Fatalf("paper-scale thresholds %d/%d/%d, want 6/7/10", o.BaseTh, o.HybridTh, o.CombinedTh)
	}
}

func TestScaledOptionsSmallRouters(t *testing.T) {
	o := ScaledOptions(Tiny.Params())
	if o.BaseTh < 2 || o.BaseTh > 6 {
		t.Fatalf("tiny BaseTh %d out of range", o.BaseTh)
	}
	if o.HybridTh != o.BaseTh+1 {
		t.Fatalf("HybridTh %d != BaseTh+1", o.HybridTh)
	}
	if o.CombinedTh < 3 {
		t.Fatalf("CombinedTh %d", o.CombinedTh)
	}
}

func TestNormalizedVCs(t *testing.T) {
	for _, a := range routing.All() {
		c := tinyCfg(a).normalized()
		if c.Router.VCsLocal < routing.RequiredLocalVCs(a) {
			t.Fatalf("%v: local VCs %d < required %d", a, c.Router.VCsLocal, routing.RequiredLocalVCs(a))
		}
	}
}

func TestWorkloadNamesAndPatterns(t *testing.T) {
	tp := topology.MustNew(Tiny.Params())
	for _, w := range []Workload{UN(), ADV(1), ADV(2), MixUN(0.5, 1)} {
		if w.Name() == "" {
			t.Fatal("empty workload name")
		}
		if _, err := w.Pattern(tp); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
	}
	if _, err := (Workload{Kind: WorkloadKind(9)}).Pattern(tp); err == nil {
		t.Fatal("bad kind accepted")
	}
	if _, err := ADV(0).Pattern(tp); err == nil {
		t.Fatal("ADV+0 accepted")
	}
}

func TestRunSteadyValidation(t *testing.T) {
	if _, err := RunSteadyBudget(tinyCfg(routing.Min), UN(), 0.1, Budget{Warmup: -1, Measure: 100, Seeds: 1}); err == nil {
		t.Fatal("negative warmup accepted")
	}
	if _, err := RunSteadyBudget(tinyCfg(routing.Min), UN(), 0.1, Budget{Warmup: 10, Measure: 0, Seeds: 1}); err == nil {
		t.Fatal("zero measure accepted")
	}
	if _, err := RunSteadyBudget(tinyCfg(routing.Min), UN(), 1.7, Budget{Warmup: 10, Measure: 10, Seeds: 1}); err == nil {
		t.Fatal("load > 1 accepted")
	}
}

func TestRunSteadyBasics(t *testing.T) {
	t.Parallel()
	r, err := RunSteadyBudget(tinyCfg(routing.Min), UN(), 0.2, Budget{Warmup: 800, Measure: 800, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Accepted throughput cannot exceed offered load (plus a little
	// drain of warmup backlog).
	if r.Accepted > 0.25 {
		t.Fatalf("accepted %.3f > offered 0.2", r.Accepted)
	}
	if r.Accepted < 0.15 {
		t.Fatalf("accepted %.3f far below offered 0.2", r.Accepted)
	}
	// Minimum possible latency: 13 cycles (same-router delivery).
	if r.AvgLatency < 13 {
		t.Fatalf("latency %.1f below physical minimum", r.AvgLatency)
	}
	if r.P50 <= 0 || r.P99 < r.P50 {
		t.Fatalf("percentiles p50=%d p99=%d", r.P50, r.P99)
	}
	if r.AvgHops < 1 || r.AvgHops > 4 {
		t.Fatalf("avg hops %.2f", r.AvgHops)
	}
	if r.Algo != "MIN" || r.Workload != "UN" || r.Seeds != 1 {
		t.Fatalf("metadata %+v", r)
	}
}

func TestRunSteadyDeterministicAndSeedsAveraged(t *testing.T) {
	t.Parallel()
	a, err := RunSteadyBudget(tinyCfg(routing.Base), UN(), 0.2, Budget{Warmup: 500, Measure: 500, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RunSteadyBudget(tinyCfg(routing.Base), UN(), 0.2, Budget{Warmup: 500, Measure: 500, Seeds: 1})
	if a.AvgLatency != b.AvgLatency || a.Delivered != b.Delivered {
		t.Fatalf("same-seed runs differ: %+v vs %+v", a, b)
	}
	m, err := RunSteadyBudget(tinyCfg(routing.Base), UN(), 0.2, Budget{Warmup: 500, Measure: 500, Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Seeds != 3 {
		t.Fatalf("seeds %d", m.Seeds)
	}
	if m.Delivered <= a.Delivered {
		t.Fatal("multi-seed did not accumulate deliveries")
	}
	if math.Abs(m.AvgLatency-a.AvgLatency) > 0.25*a.AvgLatency {
		t.Fatalf("seed average %.1f far from single seed %.1f", m.AvgLatency, a.AvgLatency)
	}
}

// TestStallCycles pins SteadyResult.StallCycles on a wedge and on its
// healthy twin. MIN at tiny under UN 0.3 with a fifth of the global
// links failed at cycle 200 delivers 3 434, 1 059, 8 and then no packets
// per 1 000 cycles, over 12 000 staying in flight, so its span lasts to
// the window's end. Without the faults it delivers about 5 400 packets
// per 1 000 cycles and its longest span is a few cycles. Over two seeds
// the span is the larger seed's, not their sum.
func TestStallCycles(t *testing.T) {
	t.Parallel()
	b := Budget{Warmup: 1000, Measure: 8000, Seeds: 2}
	for _, tc := range []struct {
		faults   string
		min, max int64
	}{{"random:20%@200", b.Measure / 2, b.Measure}, {"off", 0, 10}} {
		c := tinyCfg(routing.Min)
		fc, err := router.ParseFaultConfig(tc.faults)
		if err != nil {
			t.Fatal(err)
		}
		c.Router.Faults = fc
		r, err := RunSteadyBudget(c, UN(), 0.3, b)
		if err != nil {
			t.Fatal(err)
		}
		if r.StallCycles < tc.min || r.StallCycles > tc.max {
			t.Errorf("faults %s: StallCycles %d, want in [%d, %d]", tc.faults, r.StallCycles, tc.min, tc.max)
		}
	}
}

// TestFig5aShape_UniformLatency is the paper's headline low-load claim
// (Fig. 5a): Base and ECtN match MIN's optimal latency under uniform
// traffic, while the congestion-based adaptives (OLM, PB) pay a
// misrouting penalty above it.
func TestFig5aShape_UniformLatency(t *testing.T) {
	t.Parallel()
	const load, warm, meas = 0.2, 1000, 1000
	lat := map[routing.Algo]float64{}
	for _, a := range []routing.Algo{routing.Min, routing.Base, routing.ECtN, routing.OLM, routing.PB} {
		r, err := RunSteadyBudget(tinyCfg(a), UN(), load, Budget{Warmup: warm, Measure: meas, Seeds: 2})
		if err != nil {
			t.Fatal(err)
		}
		requireNoStall(t, a, r, meas)
		lat[a] = r.AvgLatency
	}
	min := lat[routing.Min]
	if lat[routing.Base] > 1.03*min {
		t.Errorf("Base latency %.1f not matching MIN %.1f", lat[routing.Base], min)
	}
	if lat[routing.ECtN] > 1.03*min {
		t.Errorf("ECtN latency %.1f not matching MIN %.1f", lat[routing.ECtN], min)
	}
	if lat[routing.OLM] < 0.99*min {
		t.Errorf("OLM latency %.1f below MIN %.1f: suspicious", lat[routing.OLM], min)
	}
}

// requireNoStall fails when a shape test's point went a quarter of its
// measurement window without a delivery: a throughput or latency shape
// read off a wedged network means nothing.
func requireNoStall(t *testing.T, a routing.Algo, r SteadyResult, meas int64) {
	t.Helper()
	if r.StallCycles >= meas/4 {
		t.Errorf("%v: StallCycles %d, want < %d", a, r.StallCycles, meas/4)
	}
}

// TestFig5bShape_AdversarialThroughput is the paper's headline
// adversarial claim (Fig. 5b): under ADV+1 beyond MIN's capacity, the
// contention mechanisms reach VAL-like throughput while MIN saturates at
// the single-global-link bound.
func TestFig5bShape_AdversarialThroughput(t *testing.T) {
	t.Parallel()
	const load, warm, meas = 0.4, 1500, 1000
	acc := map[routing.Algo]float64{}
	for _, a := range []routing.Algo{routing.Min, routing.Valiant, routing.Base, routing.ECtN, routing.Hybrid} {
		r, err := RunSteadyBudget(tinyCfg(a), ADV(1), load, Budget{Warmup: warm, Measure: meas, Seeds: 2})
		if err != nil {
			t.Fatal(err)
		}
		requireNoStall(t, a, r, meas)
		acc[a] = r.Accepted
	}
	// MIN bound: 1 global link shared by a*p=16 nodes -> 1/16 = 0.0625.
	if acc[routing.Min] > 0.12 {
		t.Errorf("MIN accepted %.3f, expected saturation near 0.0625", acc[routing.Min])
	}
	for _, a := range []routing.Algo{routing.Base, routing.ECtN, routing.Hybrid} {
		if acc[a] < 2.5*acc[routing.Min] {
			t.Errorf("%v accepted %.3f, not clearly above MIN %.3f", a, acc[a], acc[routing.Min])
		}
		if acc[a] < 0.6*acc[routing.Valiant] {
			t.Errorf("%v accepted %.3f far below VAL %.3f", a, acc[a], acc[routing.Valiant])
		}
	}
}

// TestFig7Shape_TransientAdaptation: after a UN->ADV+1 switch, the
// contention mechanisms adapt within tens of cycles while the
// credit-based OLM needs far longer (Fig. 7): in the immediate
// post-switch window Base must already be misrouting most traffic.
//
// The paper runs this at 20% load on the 16512-node system, where each
// router sees 1.6 phits/cycle of injection pressure; the tiny test
// network needs 35% load to sit in the same fast-trigger regime (§V-A's
// "low load zone" discussion explains the dependence).
func TestFig7Shape_TransientAdaptation(t *testing.T) {
	t.Parallel()
	const load = 0.35
	run := func(a routing.Algo) TransientResult {
		r, err := RunTransient(tinyCfg(a), UN(), ADV(1), load, transientBudget(1200, 100, 600, 20, 2))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run(routing.Base)
	olm := run(routing.OLM)

	window := func(r TransientResult, lo, hi int64) (misMean float64, n int) {
		var s float64
		for i, tm := range r.Times {
			if tm >= lo && tm < hi {
				s += r.MisroutedPct[i]
				n++
			}
		}
		if n == 0 {
			return 0, 0
		}
		return s / float64(n), n
	}
	// Pre-switch: nobody misroutes much under UN.
	preBase, n1 := window(base, -100, 0)
	if n1 == 0 || preBase > 20 {
		t.Errorf("Base pre-switch misrouting %.0f%% (n=%d)", preBase, n1)
	}
	// The minimal inter-group path takes ~160 cycles on this topology,
	// so packets injected right after the switch deliver from t~170;
	// in the window 250-450 Base is expected to be misrouting nearly
	// everything (the paper's Fig. 7b reaches ~100%).
	postBase, n2 := window(base, 250, 450)
	if n2 == 0 || postBase < 75 {
		t.Errorf("Base post-switch misrouting only %.0f%% (n=%d)", postBase, n2)
	}
	// OLM's credit-based trigger must be visibly slower in the same
	// window (Fig. 7 contrast).
	postOLM, _ := window(olm, 250, 450)
	if postOLM > postBase-10 {
		t.Errorf("OLM misrouting %.0f%% not clearly slower than Base %.0f%%", postOLM, postBase)
	}
}

// TestFig9Shape_ECtNFlatAfterConvergence: after convergence on the new
// pattern, ECtN's latency trace is flat (contention is independent of
// the routing decision), unlike PB whose ECN feedback loop oscillates.
func TestFig9Shape_ECtNFlatAfterConvergence(t *testing.T) {
	t.Parallel()
	const load = 0.2
	run := func(a routing.Algo) TransientResult {
		r, err := RunTransient(tinyCfg(a), UN(), ADV(1), load, transientBudget(1200, 0, 1600, 50, 2))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ectn := run(routing.ECtN)
	pb := run(routing.PB)
	variance := func(r TransientResult, from int64) float64 {
		var w stats.Welford
		for i, tm := range r.Times {
			if tm >= from {
				w.Add(r.Latency[i])
			}
		}
		return w.Std()
	}
	se, sp := variance(ectn, 600), variance(pb, 600)
	if se > sp*1.5 {
		t.Errorf("ECtN post-convergence latency std %.1f exceeds PB %.1f by >50%%", se, sp)
	}
}

// TestMeanSaturatedContention checks the §VI-A estimate: under saturated
// uniform traffic the mean per-port contention counter approaches the
// mean VC count per port (2.78 for the tiny router).
func TestMeanSaturatedContention(t *testing.T) {
	t.Parallel()
	c := tinyCfg(routing.Base)
	got, err := MeanSaturatedContention(context.Background(), c, 0.95, 1500, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Router.MeanVCsPerPort() // 25 VCs / 9 ports = 2.78
	if got < 0.5*want || got > 1.3*want {
		t.Fatalf("saturated counter mean %.2f outside [%.2f, %.2f] around VI-A estimate %.2f",
			got, 0.5*want, 1.3*want, want)
	}
}

func TestRunTransientValidation(t *testing.T) {
	c := tinyCfg(routing.Base)
	if _, err := RunTransient(c, UN(), ADV(1), 0.2, transientBudget(50, 100, 600, 10, 1)); err == nil {
		t.Fatal("warmup < pre accepted")
	}
	if _, err := RunTransient(c, UN(), ADV(1), 0.2, transientBudget(500, 100, 5, 10, 1)); err == nil {
		t.Fatal("post < bucket accepted")
	}
}

func TestRunTransientTimesRelative(t *testing.T) {
	t.Parallel()
	r, err := RunTransient(tinyCfg(routing.Min), UN(), ADV(1), 0.1, transientBudget(600, 100, 200, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Times) == 0 {
		t.Fatal("empty trace")
	}
	for i, tm := range r.Times {
		if tm < -100 || tm >= 200 {
			t.Fatalf("time %d outside window", tm)
		}
		if i > 0 && tm <= r.Times[i-1] {
			t.Fatal("times not increasing")
		}
	}
	if len(r.Latency) != len(r.Times) || len(r.MisroutedPct) != len(r.Times) {
		t.Fatal("series lengths differ")
	}
}

func TestForEachTaskErrorPropagates(t *testing.T) {
	err := forEachTaskN(8, 4, func(i int) error {
		if i == 3 {
			return errTest
		}
		return nil
	})
	if err != errTest {
		t.Fatalf("got %v", err)
	}
}

// testPoint builds the system the equivalence tests drive by hand,
// through the production constructor, at their fixed seeds.
func testPoint(t testing.TB, c Config, w Workload, load float64) (*router.Network, *traffic.Injector) {
	t.Helper()
	p, err := newPoint(c, w, load, 2025, 31, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p.net, p.inj
}

// transientBudget is the Budget of a bare transient run.
func transientBudget(warmup, pre, post, bucket int64, seeds int) Budget {
	return Budget{TransientWarmup: warmup, Pre: pre, Post: post, Bucket: bucket, Seeds: seeds}
}

var errTest = &simTestError{}

type simTestError struct{}

func (*simTestError) Error() string { return "boom" }

// TestUtilizationUnderADV: ADV+1 saturates global links while local
// links stay lightly loaded under MIN (every group funnels into one
// global link, so mean global utilization is bounded by 1 link's worth),
// and utilizations are sane fractions.
func TestUtilizationUnderADV(t *testing.T) {
	t.Parallel()
	r, err := RunSteadyBudget(tinyCfg(routing.Min), ADV(1), 0.4, Budget{Warmup: 800, Measure: 800, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.UtilGlobal <= 0 || r.UtilGlobal > 1 || r.UtilLocal < 0 || r.UtilLocal > 1 {
		t.Fatalf("utilizations out of range: local %.3f global %.3f", r.UtilLocal, r.UtilGlobal)
	}
	// Under MIN/ADV+1 exactly one of the 8 outgoing global links per
	// group carries traffic at ~100%: mean global utilization ~1/8.
	if r.UtilGlobal < 0.08 || r.UtilGlobal > 0.20 {
		t.Fatalf("global utilization %.3f, want ~0.125", r.UtilGlobal)
	}
}

// TestUtilizationScalesWithLoad: uniform-traffic utilization tracks the
// offered load.
func TestUtilizationScalesWithLoad(t *testing.T) {
	t.Parallel()
	lo, err := RunSteadyBudget(tinyCfg(routing.Min), UN(), 0.1, Budget{Warmup: 600, Measure: 600, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := RunSteadyBudget(tinyCfg(routing.Min), UN(), 0.3, Budget{Warmup: 600, Measure: 600, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hi.UtilGlobal < 2*lo.UtilGlobal {
		t.Fatalf("global utilization did not scale: %.3f -> %.3f", lo.UtilGlobal, hi.UtilGlobal)
	}
	if hi.UtilLocal < 2*lo.UtilLocal {
		t.Fatalf("local utilization did not scale: %.3f -> %.3f", lo.UtilLocal, hi.UtilLocal)
	}
}
