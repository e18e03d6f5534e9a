package cbar

// One benchmark per table/figure of the paper. Each bench runs a
// reduced-scale version of the experiment (tiny network, single seed,
// short windows) and reports the quantities the paper plots via
// b.ReportMetric, so `go test -bench=.` both exercises the full harness
// and prints the reproduction's key numbers. Full-scale regeneration is
// `go run ./cmd/cbar figures -fig all -scale paper`.

import (
	"io"
	"testing"
)

// benchSteadyOpts keeps the macro-benchmarks fast; the windows are long
// enough for qualitative shape, not for publication noise levels.
var benchSteadyOpts = SteadyOptions{Warmup: 800, Measure: 800, Seeds: 1}

func benchSteady(b *testing.B, alg Algorithm, t Traffic, load float64) SteadyResult {
	b.Helper()
	cfg := NewConfig(Tiny, alg)
	res, err := RunSteady(cfg, t, load, benchSteadyOpts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTableI_Defaults checks the Table I defaults end to end: the
// paper-scale config must carry the exact published parameters, and a
// single steady point must run.
func BenchmarkTableI_Defaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := NewConfig(Paper, Base)
		if cfg.Nodes() != 16512 || cfg.PacketSize != 8 || cfg.BaseTh != 6 {
			b.Fatalf("Table I defaults broken: %+v", cfg)
		}
		r := benchSteady(b, Base, Uniform(), 0.2)
		b.ReportMetric(r.AvgLatency, "lat-cycles")
	}
}

// BenchmarkFig5a_UN: uniform traffic — Base must match MIN's optimal
// latency (the paper's headline low-load claim).
func BenchmarkFig5a_UN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		min := benchSteady(b, MIN, Uniform(), 0.2)
		base := benchSteady(b, Base, Uniform(), 0.2)
		olm := benchSteady(b, OLM, Uniform(), 0.2)
		b.ReportMetric(min.AvgLatency, "MIN-lat")
		b.ReportMetric(base.AvgLatency, "Base-lat")
		b.ReportMetric(olm.AvgLatency, "OLM-lat")
	}
}

// BenchmarkFig5b_ADV1: adversarial ADV+1 — MIN collapses at the single
// global link bound while Base approaches the Valiant limit.
func BenchmarkFig5b_ADV1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		min := benchSteady(b, MIN, Adversarial(1), 0.2)
		val := benchSteady(b, VAL, Adversarial(1), 0.2)
		base := benchSteady(b, Base, Adversarial(1), 0.2)
		b.ReportMetric(min.Accepted, "MIN-acc")
		b.ReportMetric(val.Accepted, "VAL-acc")
		b.ReportMetric(base.Accepted, "Base-acc")
	}
}

// BenchmarkFig5c_ADVh: ADV+h forces local misrouting in the intermediate
// group; the local-misroute fraction is the figure's distinguishing
// signal.
func BenchmarkFig5c_ADVh(b *testing.B) {
	h := NewConfig(Tiny, Base).H
	for i := 0; i < b.N; i++ {
		base := benchSteady(b, Base, Adversarial(h), 0.2)
		b.ReportMetric(base.Accepted, "Base-acc")
		b.ReportMetric(base.MisroutedLocal*100, "Base-localmis-pct")
	}
}

// BenchmarkFig6_Mixed: a 50/50 UN/ADV+1 blend at the figure's load —
// ECtN's group-wide counters should stay competitive with OLM.
func BenchmarkFig6_Mixed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ectn := benchSteady(b, ECtN, Mixed(0.5, 1), 0.2)
		olm := benchSteady(b, OLM, Mixed(0.5, 1), 0.2)
		b.ReportMetric(ectn.AvgLatency, "ECtN-lat")
		b.ReportMetric(olm.AvgLatency, "OLM-lat")
	}
}

func benchTransient(b *testing.B, alg Algorithm, mutate func(*Config)) TransientResult {
	b.Helper()
	cfg := NewConfig(Tiny, alg)
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := RunTransient(cfg, Uniform(), Adversarial(1), 0.35,
		TransientOptions{Warmup: 1200, Pre: 100, Post: 600, Bucket: 20, Seeds: 1})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// misWindow averages misrouted% over delivery times [lo,hi).
func misWindow(r TransientResult, lo, hi int64) float64 {
	var s float64
	n := 0
	for i, t := range r.Times {
		if t >= lo && t < hi {
			s += r.MisroutedPct[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// BenchmarkFig7a_TransientLatency: latency trace after UN->ADV+1; report
// the settled post-switch latency for Base vs OLM.
func BenchmarkFig7a_TransientLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := benchTransient(b, Base, nil)
		olm := benchTransient(b, OLM, nil)
		lat := func(r TransientResult) float64 {
			var s float64
			n := 0
			for j, t := range r.Times {
				if t >= 300 && t < 500 {
					s += r.Latency[j]
					n++
				}
			}
			if n == 0 {
				return 0
			}
			return s / float64(n)
		}
		b.ReportMetric(lat(base), "Base-lat")
		b.ReportMetric(lat(olm), "OLM-lat")
	}
}

// BenchmarkFig7b_TransientMisroute: the adaptation-speed signal — the
// misrouted fraction shortly after the switch (contention mechanisms
// jump to ~100%, credit mechanisms lag).
func BenchmarkFig7b_TransientMisroute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := benchTransient(b, Base, nil)
		olm := benchTransient(b, OLM, nil)
		ectn := benchTransient(b, ECtN, nil)
		b.ReportMetric(misWindow(base, 250, 450), "Base-mis-pct")
		b.ReportMetric(misWindow(olm, 250, 450), "OLM-mis-pct")
		b.ReportMetric(misWindow(ectn, 250, 450), "ECtN-mis-pct")
	}
}

// BenchmarkFig8_LargeBuffers: with 8x buffers the contention mechanisms
// keep their adaptation speed while credit-based OLM slows further — the
// buffer-independence claim.
func BenchmarkFig8_LargeBuffers(b *testing.B) {
	grow := func(c *Config) {
		c.BufLocal, c.BufInjection, c.BufGlobal = 256, 256, 2048
	}
	for i := 0; i < b.N; i++ {
		base := benchTransient(b, Base, grow)
		olm := benchTransient(b, OLM, grow)
		b.ReportMetric(misWindow(base, 250, 450), "Base-mis-pct")
		b.ReportMetric(misWindow(olm, 250, 450), "OLM-mis-pct")
	}
}

// BenchmarkFig9_Oscillation: post-convergence latency jitter — PB's ECN
// feedback loop oscillates, ECtN is flat.
func BenchmarkFig9_Oscillation(b *testing.B) {
	long := TransientOptions{Warmup: 1200, Pre: 0, Post: 1600, Bucket: 50, Seeds: 1}
	for i := 0; i < b.N; i++ {
		std := func(alg Algorithm) float64 {
			cfg := NewConfig(Tiny, alg)
			r, err := RunTransient(cfg, Uniform(), Adversarial(1), 0.35, long)
			if err != nil {
				b.Fatal(err)
			}
			var mean, m2 float64
			n := 0.0
			for j, t := range r.Times {
				if t < 600 {
					continue
				}
				n++
				d := r.Latency[j] - mean
				mean += d / n
				m2 += d * (r.Latency[j] - mean)
			}
			if n < 2 {
				return 0
			}
			return m2 / (n - 1)
		}
		b.ReportMetric(std(PB), "PB-lat-var")
		b.ReportMetric(std(ECtN), "ECtN-lat-var")
	}
}

// BenchmarkFig10a_ThresholdUN: a too-low threshold penalizes uniform
// traffic (false triggers).
func BenchmarkFig10a_ThresholdUN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lat := func(th int) float64 {
			cfg := NewConfig(Tiny, Base)
			cfg.BaseTh = th
			r, err := RunSteady(cfg, Uniform(), 0.4, benchSteadyOpts)
			if err != nil {
				b.Fatal(err)
			}
			return r.AvgLatency
		}
		b.ReportMetric(lat(1), "th1-lat")
		b.ReportMetric(lat(6), "th6-lat")
	}
}

// BenchmarkFig10b_ThresholdADV: a too-high threshold penalizes
// adversarial traffic (late misrouting).
func BenchmarkFig10b_ThresholdADV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		acc := func(th int) float64 {
			cfg := NewConfig(Tiny, Base)
			cfg.BaseTh = th
			r, err := RunSteady(cfg, Adversarial(1), 0.2, benchSteadyOpts)
			if err != nil {
				b.Fatal(err)
			}
			return r.Accepted
		}
		b.ReportMetric(acc(3), "th3-acc")
		b.ReportMetric(acc(12), "th12-acc")
	}
}

// BenchmarkVIA_CounterSaturation: §VI-A — the mean saturated contention
// counter approaches the mean VC count per port.
func BenchmarkVIA_CounterSaturation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := RunExperiment("via", Tiny, 1, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ECtNPeriod: design-choice ablation — a longer
// exchange period delays group-wide adaptation (the abl-ectn-period
// study; internal/sim/ablations.go states the trade-off).
func BenchmarkAblation_ECtNPeriod(b *testing.B) {
	early := func(period int64) float64 {
		cfg := NewConfig(Tiny, ECtN)
		cfg.ECtNPeriod = period
		r, err := RunTransient(cfg, Uniform(), Adversarial(1), 0.35,
			TransientOptions{Warmup: 1200, Pre: 0, Post: 400, Bucket: 25, Seeds: 1})
		if err != nil {
			b.Fatal(err)
		}
		return misWindow(r, 150, 350)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(early(25), "p25-early-mis-pct")
		b.ReportMetric(early(400), "p400-early-mis-pct")
	}
}

// BenchmarkAblation_Speedup: the Table I 2x allocator speedup versus a
// plain separable allocator, at high uniform load.
func BenchmarkAblation_Speedup(b *testing.B) {
	acc := func(speedup int) float64 {
		cfg := NewConfig(Tiny, Base)
		cfg.Speedup = speedup
		r, err := RunSteady(cfg, Uniform(), 0.8, benchSteadyOpts)
		if err != nil {
			b.Fatal(err)
		}
		return r.Accepted
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(acc(1), "sp1-acc")
		b.ReportMetric(acc(2), "sp2-acc")
	}
}
