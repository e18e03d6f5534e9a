package sim

import (
	"fmt"
	"io"

	"cbar/internal/routing"
)

// Ablations quantify design choices beyond the paper's own figures (the
// abl-* experiment ids; the root doc.go's "Measurement methodology"
// section says how their grids run):
//
//   - the ECtN exchange period (the paper fixes 100 cycles and discusses
//     cheaper encodings in §VI-B — the period is the latency/overhead
//     knob);
//   - the allocator's 2× internal speedup (Table I; compensates the
//     separable allocator's matching loss);
//   - the 4-bit saturation of broadcast partial counters (§VI-B sizes
//     the broadcast with 4-bit fields);
//   - Base's threshold at the exact §VI-A bounds.
//
// Each ablation prints a small CSV comparable across its variants.

// AblationECtNPeriod measures ECtN's post-switch adaptation (mean
// misrouted percentage in an early delivery window) as a function of the
// exchange period.
func AblationECtNPeriod(s Scale, b Budget, w io.Writer) error {
	load := transientLoad(s)
	fmt.Fprintf(w, "# ablation: ECtN exchange period (UN->ADV+1 at load %.2f)\n", load)
	fmt.Fprintln(w, "period_cycles,early_misrouted_pct,late_misrouted_pct")
	b.Pre = 0 // the trace starts at the switch
	for _, period := range []int64{25, 50, 100, 200, 400} {
		cfg := b.config(s, routing.ECtN)
		cfg.Opts.ECtNPeriod = period
		r, err := RunTransient(cfg, UN(), ADV(1), load, b)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d,%.1f,%.1f\n", period,
			windowMean(r, 150, 350, r.MisroutedPct),
			windowMean(r, 350, b.Post, r.MisroutedPct))
	}
	return nil
}

// AblationSpeedup measures uniform-traffic throughput near saturation
// with and without the 2× allocator speedup.
func AblationSpeedup(s Scale, b Budget, w io.Writer) error {
	var pts []gridPoint
	for _, speedup := range []int{1, 2, 3} {
		for _, load := range []float64{0.5, 0.8} {
			cfg := b.config(s, routing.Base)
			cfg.Router.Speedup = speedup
			pts = append(pts, gridPoint{cfg, UN(), load})
		}
	}
	return steadyTable(w, b, "# ablation: allocator internal speedup (UN at high load, Base)",
		"speedup,load,avg_latency_cycles,accepted_phits_node_cycle", pts,
		func(pt gridPoint, r SteadyResult) string {
			return fmt.Sprintf("%d,%.2f,%.2f,%.4f", pt.c.Router.Speedup, pt.load, r.AvgLatency, r.Accepted)
		})
}

// AblationLocalVCs measures adversarial throughput for Base with 3
// (Table I) versus 4 local VCs: the extra lane relaxes the local
// misroute budget guard.
func AblationLocalVCs(s Scale, b Budget, w io.Writer) error {
	h := s.Params().H
	var pts []gridPoint
	for _, vcs := range []int{3, 4} {
		for _, load := range []float64{0.15, 0.3} {
			cfg := b.config(s, routing.Base)
			cfg.Router.VCsLocal = vcs
			pts = append(pts, gridPoint{cfg, ADV(h), load})
		}
	}
	return steadyTable(w, b, fmt.Sprintf("# ablation: local VC count under ADV+%d (Base)", h),
		"local_vcs,load,avg_latency_cycles,accepted_phits_node_cycle,misrouted_local_frac", pts,
		func(pt gridPoint, r SteadyResult) string {
			return fmt.Sprintf("%d,%.2f,%.2f,%.4f,%.4f", pt.c.Router.VCsLocal, pt.load, r.AvgLatency, r.Accepted, r.MisroutedLocal)
		})
}

// AblationThresholdBounds pins Base's threshold at the exact §VI-A
// bounds — the saturated-counter mean (rounded) and the injection-port
// count — and reports both traffic classes.
func AblationThresholdBounds(s Scale, b Budget, w io.Writer) error {
	p := s.Params()
	cfg := b.config(s, routing.Base)
	meanVCs := cfg.Router.MeanVCsPerPort()
	lower := int32(meanVCs + 0.5)
	upper := int32(p.P)
	var pts []gridPoint
	for _, th := range []int32{lower, upper} {
		cfg.Opts.BaseTh = th
		pts = append(pts, gridPoint{cfg, UN(), 0.5}, gridPoint{cfg, ADV(1), 0.2})
	}
	return steadyTable(w, b,
		fmt.Sprintf("# ablation: Base threshold at the §VI-A bounds (meanVCs=%.2f -> lower %d, p=%d -> upper %d)",
			meanVCs, lower, p.P, upper),
		"threshold,traffic,avg_latency_cycles,accepted_phits_node_cycle", pts,
		func(pt gridPoint, r SteadyResult) string {
			return fmt.Sprintf("%d,%s,%.2f,%.4f", pt.c.Opts.BaseTh, r.Workload, r.AvgLatency, r.Accepted)
		})
}

// AblationStatisticalTrigger contrasts Base's hard threshold with the
// §VI-C statistical trigger (BaseProb) under heavy adversarial load:
// the paper observes that a fixed threshold can divert *all* traffic
// nonminimally while the minimal path sits empty; the statistical
// variant keeps the minimal path carrying a share.
func AblationStatisticalTrigger(s Scale, b Budget, w io.Writer) error {
	var pts []gridPoint
	for _, algo := range []routing.Algo{routing.Base, routing.BaseProb} {
		for _, load := range []float64{0.1, 0.2} {
			pts = append(pts, gridPoint{b.config(s, algo), ADV(1), load})
		}
	}
	return steadyTable(w, b, "# ablation: §VI-C statistical misrouting trigger under ADV+1",
		"algo,load,avg_latency_cycles,accepted_phits_node_cycle,misrouted_global_frac", pts,
		func(pt gridPoint, r SteadyResult) string {
			return fmt.Sprintf("%s,%.2f,%.2f,%.4f,%.4f", r.Algo, pt.load, r.AvgLatency, r.Accepted, r.MisroutedGlobal)
		})
}

// windowMean averages series values whose time lies in [lo, hi).
func windowMean(r TransientResult, lo, hi int64, series []float64) float64 {
	var s float64
	n := 0
	for i, t := range r.Times {
		if t >= lo && t < hi {
			s += series[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// AblationExperiments returns the ablation set in registry form.
func AblationExperiments() []Experiment {
	return []Experiment{
		{"abl-ectn-period", "Ablation: ECtN exchange period vs adaptation speed", AblationECtNPeriod},
		{"abl-speedup", "Ablation: allocator internal speedup vs throughput", AblationSpeedup},
		{"abl-local-vcs", "Ablation: local VC count under ADV+h", AblationLocalVCs},
		{"abl-th-bounds", "Ablation: Base threshold at the §VI-A bounds", AblationThresholdBounds},
		{"abl-statistical", "Ablation: §VI-C statistical trigger vs Base under ADV+1", AblationStatisticalTrigger},
	}
}
