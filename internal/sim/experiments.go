package sim

import (
	"fmt"
	"io"
	"slices"

	"cbar/internal/routing"
)

// transientLoad returns the offered load of the Figures 7-9 experiments:
// 20% at the paper's (balanced) scales; the unbalanced tiny topology
// needs 35% to sit in the same per-router pressure regime.
func transientLoad(s Scale) float64 {
	if s == Tiny {
		return 0.35
	}
	return 0.2
}

// mixLoad returns the Figure 6 offered load: 35% in the paper; the tiny
// topology's Valiant limit under ADV+1 is 0.25, so it drops to 20%.
func mixLoad(s Scale) float64 {
	if s == Tiny {
		return 0.2
	}
	return 0.35
}

// Experiment regenerates one table or figure of the paper, writing CSV
// rows to w.
type Experiment struct {
	ID    string
	Title string
	Run   func(s Scale, b Budget, w io.Writer) error
}

// Experiments returns the full per-figure harness, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig5a", "Latency & throughput vs load, uniform traffic (UN)", runFig5a},
		{"fig5b", "Latency & throughput vs load, adversarial ADV+1", runFig5b},
		{"fig5c", "Latency & throughput vs load, adversarial ADV+h", runFig5c},
		{"fig6", "Latency vs UN/ADV+1 mix at fixed load", runFig6},
		{"fig7", "Transient UN->ADV+1, small buffers: latency & misrouted%", runFig7},
		{"fig8", "Transient UN->ADV+1, large buffers (256/2048 phits)", runFig8},
		{"fig9", "Routing oscillations: PB vs ECtN, long trace", runFig9},
		{"fig10a", "Base threshold sensitivity under UN", runFig10a},
		{"fig10b", "Base threshold sensitivity under ADV+1", runFig10b},
		{"via", "§VI-A: mean saturated contention counter vs mean VCs/port", runVIA},
	}
}

// AllExperiments returns the paper's figures followed by the ablation
// studies (ablations.go).
func AllExperiments() []Experiment {
	return append(Experiments(), AblationExperiments()...)
}

// FindExperiment resolves an experiment (figure or ablation) by ID.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range AllExperiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// adaptiveAlgos is the mechanism set of the transient figures.
var adaptiveAlgos = []routing.Algo{
	routing.PB, routing.OLM, routing.Base, routing.Hybrid, routing.ECtN,
}

// runFig5 prints a Figure 5 table: the evaluated mechanisms at each
// load, in ascending load order.
func runFig5(s Scale, b Budget, w io.Writer, workload Workload, title string) error {
	var pts []gridPoint
	for _, l := range slices.Sorted(slices.Values(b.Loads)) {
		for _, a := range routing.Evaluated() {
			pts = append(pts, gridPoint{b.config(s, a), workload, l})
		}
	}
	return steadyTable(w, b, "# "+title,
		"load,algo,avg_latency_cycles,p99_latency_cycles,accepted_phits_node_cycle,misrouted_global_frac,misrouted_local_frac,avg_hops", pts,
		func(pt gridPoint, r SteadyResult) string {
			return fmt.Sprintf("%.3f,%s,%.2f,%d,%.4f,%.4f,%.4f,%.3f",
				pt.load, r.Algo, r.AvgLatency, r.P99, r.Accepted, r.MisroutedGlobal, r.MisroutedLocal, r.AvgHops)
		})
}

func runFig5a(s Scale, b Budget, w io.Writer) error {
	return runFig5(s, b, w, UN(), "Fig 5a: uniform traffic (UN); reference MIN")
}

func runFig5b(s Scale, b Budget, w io.Writer) error {
	return runFig5(s, b, w, ADV(1), "Fig 5b: adversarial ADV+1; reference VAL (limit 0.5 at balanced scale)")
}

func runFig5c(s Scale, b Budget, w io.Writer) error {
	h := s.Params().H
	return runFig5(s, b, w, ADV(h),
		fmt.Sprintf("Fig 5c: adversarial ADV+h (h=%d), requires local misrouting in the intermediate group", h))
}

// steadyTable prints a steady-state table: the title comment and header
// lines, then one row per grid point, all points measured as one
// runGrid call.
func steadyTable(w io.Writer, b Budget, title, header string, pts []gridPoint, row func(pt gridPoint, r SteadyResult) string) error {
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, header)
	rs, err := runGrid(pts, b)
	if err != nil {
		return err
	}
	for i, r := range rs {
		fmt.Fprintln(w, row(pts[i], r))
	}
	return nil
}

func runFig6(s Scale, b Budget, w io.Writer) error {
	load := mixLoad(s)
	var pts []gridPoint
	for _, frac := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		for _, a := range adaptiveAlgos {
			pts = append(pts, gridPoint{b.config(s, a), MixUN(frac, 1), load})
		}
	}
	return steadyTable(w, b, fmt.Sprintf("# Fig 6: mixed ADV+1/UN traffic at load %.2f (0%% = pure ADV+1)", load),
		"uniform_pct,algo,avg_latency_cycles,accepted_phits_node_cycle,misrouted_global_frac", pts,
		func(pt gridPoint, r SteadyResult) string {
			return fmt.Sprintf("%.0f,%s,%.2f,%.4f,%.4f", pt.w.UniformFrac*100, r.Algo, r.AvgLatency, r.Accepted, r.MisroutedGlobal)
		})
}

func writeTransientTable(w io.Writer, results []TransientResult) {
	fmt.Fprintln(w, "cycle,algo,avg_latency_cycles,misrouted_pct")
	for _, r := range results {
		for i := range r.Times {
			fmt.Fprintf(w, "%d,%s,%.2f,%.2f\n", r.Times[i], r.Algo, r.Latency[i], r.MisroutedPct[i])
		}
	}
}

func runTransientFigure(s Scale, b Budget, w io.Writer, algos []routing.Algo, post int64,
	mutate func(*Config), title string) error {
	// The figure traces Post or PostLong cycles past the switch.
	// RunTransient validates the windows before building any network, so
	// a bad budget fails in microseconds, on the first algorithm.
	b.Post = post
	load := transientLoad(s)
	results := make([]TransientResult, len(algos))
	for i, a := range algos {
		cfg := b.config(s, a)
		if mutate != nil {
			mutate(&cfg)
		}
		r, err := RunTransient(cfg, UN(), ADV(1), load, b)
		if err != nil {
			return err
		}
		results[i] = r
	}
	fmt.Fprintf(w, "# %s (UN->ADV+1 at t=0, load %.2f)\n", title, load)
	writeTransientTable(w, results)
	return nil
}

func runFig7(s Scale, b Budget, w io.Writer) error {
	return runTransientFigure(s, b, w, adaptiveAlgos, b.Post, nil,
		"Fig 7: transient response, small buffers (Table I)")
}

func runFig8(s Scale, b Budget, w io.Writer) error {
	mutate := func(c *Config) {
		// The paper's large-buffer variant: 256-phit local and
		// 2048-phit global input buffers per VC, output unchanged.
		c.Router.BufLocal = 256
		c.Router.BufInjection = 256
		c.Router.BufGlobal = 2048
	}
	return runTransientFigure(s, b, w, adaptiveAlgos, b.PostLong, mutate,
		"Fig 8: transient response, large buffers (256/2048 phits per VC)")
}

func runFig9(s Scale, b Budget, w io.Writer) error {
	return runTransientFigure(s, b, w, []routing.Algo{routing.PB, routing.ECtN}, b.PostLong, nil,
		"Fig 9: routing oscillations after the switch, PB vs ECtN")
}

// fig10Thresholds derives the threshold grids of Figure 10 from the
// scale's default (the paper sweeps 3..7 under UN and 6..12 under ADV+1
// around its default of 6).
func fig10Thresholds(s Scale) (un, adv []int32) {
	d := ScaledOptions(s.Params()).BaseTh
	for t := d - 3; t <= d+1; t++ {
		if t >= 1 {
			un = append(un, t)
		}
	}
	for t := d; t <= d+6; t++ {
		adv = append(adv, t)
	}
	return un, adv
}

func runFig10(s Scale, b Budget, w io.Writer, workload Workload, ths []int32, ref routing.Algo, title string) error {
	// Per load: one Base point per threshold, then the oblivious
	// reference curve (MIN for UN, VAL for ADV).
	var pts []gridPoint
	for _, l := range b.Loads {
		for _, th := range ths {
			cfg := b.config(s, routing.Base)
			cfg.Opts.BaseTh = th
			pts = append(pts, gridPoint{cfg, workload, l})
		}
		pts = append(pts, gridPoint{b.config(s, ref), workload, l})
	}
	return steadyTable(w, b, "# "+title, "load,threshold,avg_latency_cycles,accepted_phits_node_cycle", pts,
		func(pt gridPoint, r SteadyResult) string {
			label := r.Algo
			if pt.c.Algo == routing.Base {
				label = fmt.Sprintf("th=%d", pt.c.Opts.BaseTh)
			}
			return fmt.Sprintf("%.3f,%s,%.2f,%.4f", r.Load, label, r.AvgLatency, r.Accepted)
		})
}

func runFig10a(s Scale, b Budget, w io.Writer) error {
	un, _ := fig10Thresholds(s)
	return runFig10(s, b, w, UN(), un, routing.Min,
		"Fig 10a: Base misrouting-threshold sensitivity, uniform traffic (MIN reference)")
}

func runFig10b(s Scale, b Budget, w io.Writer) error {
	_, adv := fig10Thresholds(s)
	return runFig10(s, b, w, ADV(1), adv, routing.Valiant,
		"Fig 10b: Base misrouting-threshold sensitivity, ADV+1 (VAL reference)")
}

func runVIA(s Scale, b Budget, w io.Writer) error {
	cfg := b.config(s, routing.Base)
	got, err := MeanSaturatedContention(b.Ctx, cfg, 0.95, b.Warmup, b.Measure/4, 1)
	if err != nil {
		return err
	}
	want := cfg.Router.MeanVCsPerPort()
	fmt.Fprintln(w, "# §VI-A: mean contention counter per port under saturated UN traffic")
	fmt.Fprintln(w, "metric,value")
	fmt.Fprintf(w, "mean_saturated_counter,%.3f\n", got)
	fmt.Fprintf(w, "mean_vcs_per_port_estimate,%.3f\n", want)
	return nil
}
