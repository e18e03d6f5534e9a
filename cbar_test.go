package cbar

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

func TestAlgorithmStringsRoundTrip(t *testing.T) {
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if Algorithm(42).String() == "" {
		t.Error("unknown algorithm empty string")
	}
}

func TestContentionPredicate(t *testing.T) {
	want := map[Algorithm]bool{
		MIN: false, VAL: false, PB: false, OLM: false,
		Base: true, Hybrid: true, ECtN: true,
	}
	for a, w := range want {
		if a.IsContentionBased() != w {
			t.Errorf("%v IsContentionBased = %v", a, !w)
		}
	}
}

func TestScaleRoundTrip(t *testing.T) {
	for _, s := range []Scale{Tiny, Small, Paper} {
		got, err := ParseScale(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("bad scale accepted")
	}
}

// TestUnknownScaleRejected: a Scale outside the three constants used to
// simulate Tiny through the facade and Paper inside the engine. It is no
// network now, and both entry-point families say so.
func TestUnknownScaleRejected(t *testing.T) {
	opt := SteadyOptions{Warmup: 10, Measure: 10, Seeds: 1}
	if _, err := RunSteady(NewConfig(Scale(9), MIN), Uniform(), 0.1, opt); err == nil || !strings.Contains(err.Error(), "topology") {
		t.Errorf("RunSteady at Scale(9) = %v, want the topology error", err)
	}
	err := RunExperimentOpts("fig5a", Scale(9), ExperimentOptions{Seeds: 1}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "Scale(9)") {
		t.Errorf("RunExperimentOpts at Scale(9) = %v, want an error naming the scale", err)
	}
}

func TestNewConfigTableI(t *testing.T) {
	c := NewConfig(Paper, Base)
	if c.P != 8 || c.A != 16 || c.H != 8 {
		t.Fatalf("topology %d/%d/%d", c.P, c.A, c.H)
	}
	if c.Nodes() != 16512 || c.Routers() != 2064 || c.Groups() != 129 {
		t.Fatalf("size %d/%d/%d", c.Nodes(), c.Routers(), c.Groups())
	}
	if c.PacketSize != 8 || c.BufGlobal != 256 || c.LatencyGlobal != 100 {
		t.Fatalf("micro-arch defaults %+v", c)
	}
	if c.BaseTh != 6 || c.HybridTh != 7 || c.CombinedTh != 10 || c.ECtNPeriod != 100 {
		t.Fatalf("thresholds %+v", c)
	}
}

func TestConfigInternalRejectsBadAlgo(t *testing.T) {
	c := NewConfig(Tiny, Algorithm(77))
	if _, err := RunSteady(c, Uniform(), 0.1, SteadyOptions{Warmup: 10, Measure: 10, Seeds: 1}); err == nil {
		t.Fatal("bad algorithm accepted")
	}
}

// TestNegativeOptionsRejected: zero-valued options take scale defaults,
// but explicitly negative windows/repeats must surface validation
// errors instead of being silently replaced (they used to default).
func TestNegativeOptionsRejected(t *testing.T) {
	c := NewConfig(Tiny, MIN)
	if _, err := RunSteady(c, Uniform(), 0.1, SteadyOptions{Warmup: -5, Measure: 100, Seeds: 1}); err == nil {
		t.Fatal("negative warmup accepted")
	}
	if _, err := RunSteady(c, Uniform(), 0.1, SteadyOptions{Measure: -100, Seeds: 1}); err == nil {
		t.Fatal("negative measure accepted")
	}
	if _, err := Sweep(c, Uniform(), []float64{0.1}, SteadyOptions{Warmup: 10, Measure: 10, Seeds: -1}); err == nil {
		t.Fatal("negative seeds accepted")
	}
	if _, err := RunTransient(c, Uniform(), Adversarial(1), 0.2, TransientOptions{Warmup: 500, Pre: 100, Post: 5, Bucket: 10, Seeds: 1}); err == nil {
		t.Fatal("bucket wider than post accepted")
	}
	if _, err := RunTransient(c, Uniform(), Adversarial(1), 0.2, TransientOptions{Warmup: 500, Pre: -2, Post: 200, Bucket: 10, Seeds: 1}); err == nil {
		t.Fatal("negative pre accepted")
	}
	// A negative policy parameter is an error, not a run (a period of -5
	// would combine every 5 cycles).
	for i, set := range []func(*Config){
		func(c *Config) { c.BaseTh = -1 },
		func(c *Config) { c.PBSatPackets = -1 },
		func(c *Config) { c.OLMRelPct = -1 },
		func(c *Config) { c.ECtNPeriod = -5 },
	} {
		pc := NewConfig(Tiny, ECtN)
		set(&pc)
		if _, err := RunSteady(pc, Uniform(), 0.1, SteadyOptions{Warmup: 10, Measure: 10, Seeds: 1}); err == nil {
			t.Fatalf("negative policy parameter %d accepted", i)
		}
	}
	// A negative worker count is an error, not "auto".
	c.Workers = -1
	if _, err := RunSteady(c, Uniform(), 0.1, SteadyOptions{Warmup: 10, Measure: 10, Seeds: 1}); err == nil {
		t.Fatal("RunSteady: negative workers accepted")
	}
	if _, err := Sweep(c, Uniform(), []float64{0.1}, SteadyOptions{Warmup: 10, Measure: 10, Seeds: 1}); err == nil {
		t.Fatal("Sweep: negative workers accepted")
	}
	if _, err := RunTransient(c, Uniform(), Adversarial(1), 0.2, TransientOptions{Warmup: 500, Pre: 100, Post: 200, Bucket: 10, Seeds: 1}); err == nil {
		t.Fatal("RunTransient: negative workers accepted")
	}
	if err := RunExperimentOpts("fig5a", Tiny, ExperimentOptions{Seeds: 1, Workers: -1}, io.Discard); err == nil {
		t.Fatal("RunExperimentOpts: negative workers accepted")
	}
}

func TestTrafficNames(t *testing.T) {
	if Uniform().Name() != "UN" {
		t.Fatal("UN name")
	}
	if Adversarial(3).Name() != "ADV+3" {
		t.Fatal("ADV name")
	}
	if got := Mixed(0.5, 1).Name(); got != "mix(0.5,1)" {
		t.Fatalf("mix name %q", got)
	}
}

func TestParseTraffic(t *testing.T) {
	cases := map[string]string{
		"un":                                     "UN",
		"UNIFORM":                                "UN",
		"adv+1":                                  "ADV+1",
		"adv3":                                   "ADV+3",
		"adv-2":                                  "ADV-2",
		"mix:0.4,1":                              "mix(0.4,1)",
		"hotspot:0.2,8":                          "hotspot(0.2,8)",
		"hotspot:0.125,3":                        "hotspot(0.125,3)",
		"perm:shift+5":                           "perm:shift+5",
		"perm:shift-3":                           "perm:shift-3",
		"perm:complement":                        "perm:complement",
		"perm:comp":                              "perm:complement",
		"tornado":                                "tornado",
		"burst:50,200":                           "UN+burst(50,200)",
		"burst:50,200,0.8":                       "UN+burst(50,200,0.8)",
		"adv+1+burst:50,200":                     "ADV+1+burst(50,200)",
		"un+skew:0.1,0.5":                        "UN+skew(0.1,0.5)",
		"hotspot:0.2,8+burst:30,90+skew:0.1,0.5": "hotspot(0.2,8)+burst(30,90)+skew(0.1,0.5)",
		"skew(0.1,0.5)+burst(30,90)":             "UN+burst(30,90)+skew(0.1,0.5)",
	}
	for in, want := range cases {
		tr, err := ParseTraffic(in)
		if err != nil {
			t.Errorf("ParseTraffic(%q): %v", in, err)
			continue
		}
		if tr.Name() != want {
			t.Errorf("ParseTraffic(%q).Name() = %q, want %q", in, tr.Name(), want)
		}
		if back, err := ParseTraffic(want); err != nil || back != tr {
			t.Errorf("ParseTraffic(%q) = %+v, %v; want %+v", want, back.inner, err, tr.inner)
		}
	}
	for _, bad := range []string{
		"", "advX", "mix:1", "mix:a,b", "hotspot",
		"hotspot:0.2", "hotspot:x,8", "perm:shiftX", "perm:rotate",
		"burst:50", "burst:a,b", "un+skew:0.1", "+burst:50,200",
		"mix(0.4,1", "un+skew:0,0.5", "un+skew:1,0.5", "un+skew:0.1,1.5",
	} {
		if _, err := ParseTraffic(bad); err == nil {
			t.Errorf("ParseTraffic(%q) accepted", bad)
		}
	}
	// A modifier written twice is an error naming it: the last copy
	// used to win silently.
	for _, tc := range []struct{ spec, mod string }{
		{"burst:50,200+burst:5,5", "burst"}, {"un+skew:0.1,0.5+skew:0.3,0.9", "skew"},
	} {
		if _, err := ParseTraffic(tc.spec); err == nil || !strings.Contains(err.Error(), "repeats its "+tc.mod) {
			t.Errorf("ParseTraffic(%q) = %v, want an error naming %s", tc.spec, err, tc.mod)
		}
	}
}

// TestParseTrafficRunsEndToEnd: every parseable spec must also run (the
// parser and the pattern constructors agree on parameter ranges).
func TestParseTrafficRunsEndToEnd(t *testing.T) {
	t.Parallel()
	c := NewConfig(Tiny, Base)
	for _, spec := range []string{"hotspot:0.3,4", "tornado", "perm:shift+7", "burst:20,60", "un+skew:0.1,0.5"} {
		tr, err := ParseTraffic(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunSteady(c, tr, 0.1, SteadyOptions{Warmup: 300, Measure: 300, Seeds: 1})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if r.Delivered == 0 {
			t.Fatalf("%s: nothing delivered", spec)
		}
	}
}

// TestOverflowFracReported: a sane low-load run reports a zero overflow
// fraction (nothing near the histogram cap), and the field mirrors
// through the public result.
func TestOverflowFracReported(t *testing.T) {
	t.Parallel()
	c := NewConfig(Tiny, MIN)
	r, err := RunSteady(c, Uniform(), 0.1, SteadyOptions{Warmup: 300, Measure: 300, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.OverflowFrac != 0 {
		t.Fatalf("low-load OverflowFrac %v, want 0", r.OverflowFrac)
	}
}

func TestRunSteadySmoke(t *testing.T) {
	t.Parallel()
	c := NewConfig(Tiny, Base)
	r, err := RunSteady(c, Uniform(), 0.2, SteadyOptions{Warmup: 600, Measure: 600, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered == 0 || r.AvgLatency < 13 {
		t.Fatalf("bad result %+v", r)
	}
	if r.Algo != "Base" || r.Workload != "UN" || r.Load != 0.2 {
		t.Fatalf("metadata %+v", r)
	}
}

// TestRunSteadyRejectsZeroSkewFraction: a skew set through WithSkew is
// checked as the grammar checks "un+skew:0,0.5" — a zero fraction
// used to run plain homogeneous traffic — and rejected with the same
// error before a cycle is simulated.
func TestRunSteadyRejectsZeroSkewFraction(t *testing.T) {
	_, parseErr := ParseTraffic("un+skew:0,0.5")
	if parseErr == nil {
		t.Fatal("the grammar accepts a zero skew fraction")
	}
	opt := SteadyOptions{Warmup: 10, Measure: 10, Seeds: 1}
	for _, tr := range []Traffic{Uniform().WithSkew(0, 0.5), Uniform().WithBurst(50, 150, 0).WithSkew(0, 0.5)} {
		_, err := RunSteady(NewConfig(Tiny, Base), tr, 0.1, opt)
		if err == nil || err.Error() != parseErr.Error() {
			t.Errorf("RunSteady(%s with skew 0, 0.5) = %v, want the grammar's error %q", tr.Name(), err, parseErr)
		}
	}
}

// TestWorkersIdenticalResults pins the public contract of
// Config.Workers: the same sweep at 1 and 3 shard workers per run must
// report identical measurements — the knob changes wall-clock time and
// nothing else.
func TestWorkersIdenticalResults(t *testing.T) {
	t.Parallel()
	opt := SteadyOptions{Warmup: 500, Measure: 500, Seeds: 2}
	run := func(workers int) []SteadyResult {
		c := NewConfig(Tiny, ECtN)
		c.Workers = workers
		rs, err := Sweep(c, Adversarial(1), []float64{0.2, 0.4}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	seq, par := run(1), run(3)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("load %v diverged:\n  workers=1 %+v\n  workers=3 %+v", seq[i].Load, seq[i], par[i])
		}
	}
}

func TestRunSteadyCustomTopology(t *testing.T) {
	t.Parallel()
	c := NewConfigFor(2, 4, 2, MIN) // 9 groups, 72 nodes
	if c.Nodes() != 72 {
		t.Fatalf("nodes %d", c.Nodes())
	}
	r, err := RunSteady(c, Uniform(), 0.15, SteadyOptions{Warmup: 500, Measure: 500, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestSweepOrderingAndMonotonicThroughput(t *testing.T) {
	t.Parallel()
	c := NewConfig(Tiny, MIN)
	loads := []float64{0.1, 0.3}
	rs, err := Sweep(c, Uniform(), loads, SteadyOptions{Warmup: 600, Measure: 600, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("%d results", len(rs))
	}
	if rs[0].Load != 0.1 || rs[1].Load != 0.3 {
		t.Fatalf("order %v %v", rs[0].Load, rs[1].Load)
	}
	if rs[1].Accepted <= rs[0].Accepted {
		t.Fatalf("throughput not increasing below saturation: %.3f then %.3f",
			rs[0].Accepted, rs[1].Accepted)
	}
}

func TestSweepEmptyRejected(t *testing.T) {
	if _, err := Sweep(NewConfig(Tiny, MIN), Uniform(), nil, SteadyOptions{}); err == nil {
		t.Fatal("empty grid accepted")
	}
}

func TestRunTransientSmoke(t *testing.T) {
	t.Parallel()
	c := NewConfig(Tiny, Base)
	r, err := RunTransient(c, Uniform(), Adversarial(1), 0.3,
		TransientOptions{Warmup: 800, Pre: 100, Post: 400, Bucket: 20, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Algo != "Base" || len(r.Times) == 0 {
		t.Fatalf("bad result %+v", r)
	}
	for i := range r.Times {
		if math.IsNaN(r.Latency[i]) || r.MisroutedPct[i] < 0 || r.MisroutedPct[i] > 100 {
			t.Fatalf("bad sample %d: %v %v", i, r.Latency[i], r.MisroutedPct[i])
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	figs := FigureIDs()
	wantFigs := []string{"fig5a", "fig5b", "fig5c", "fig6", "fig7", "fig8", "fig9", "fig10a", "fig10b", "via"}
	if len(figs) != len(wantFigs) {
		t.Fatalf("figure ids %v", figs)
	}
	ids := ExperimentIDs()
	want := append(wantFigs, "abl-ectn-period", "abl-speedup", "abl-local-vcs", "abl-th-bounds", "abl-statistical")
	if len(ids) != len(want) {
		t.Fatalf("ids %v", ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("ids %v", ids)
		}
		title, err := ExperimentTitle(id)
		if err != nil || title == "" {
			t.Fatalf("title(%s): %q, %v", id, title, err)
		}
	}
	if _, err := ExperimentTitle("fig99"); err == nil {
		t.Fatal("unknown title accepted")
	}
	if err := RunExperiment("fig99", Tiny, 1, nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentVIA(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := RunExperiment("via", Tiny, 1, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mean_saturated_counter") ||
		!strings.Contains(out, "mean_vcs_per_port_estimate") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestSteadyOptionsDefaults(t *testing.T) {
	c := NewConfig(Tiny, MIN)
	b := SteadyOptions{}.budget(c)
	if b.Warmup <= 0 || b.Measure <= 0 || b.Seeds <= 0 {
		t.Fatalf("defaults not applied: %+v", b)
	}
	// Paper-scale configs get the paper budget.
	bp := SteadyOptions{}.budget(NewConfig(Paper, MIN))
	if bp.Measure < b.Measure {
		t.Fatalf("paper budget %d smaller than tiny %d", bp.Measure, b.Measure)
	}
}
