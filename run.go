package cbar

import (
	"context"
	"fmt"
	"io"

	"cbar/internal/sim"
)

// SteadyOptions sizes a steady-state measurement. Zero values take the
// scale-appropriate defaults (the paper warms up, then measures 15000
// cycles averaged over 10 runs at full scale); explicitly negative
// windows or repeat counts are rejected with an error rather than
// silently replaced.
type SteadyOptions struct {
	// Warmup cycles before measurement starts. In adaptive mode this is
	// the cap of the MSER-detected warmup truncation instead.
	Warmup int64
	// Measure is the measurement window in cycles. In adaptive mode it
	// only sizes the default MaxMeasure cap (4x Measure).
	Measure int64
	// Seeds is the number of independent repeats (averaged; run in
	// parallel).
	Seeds int
	// Adaptive replaces the fixed windows with the adaptive measurement
	// engine: MSER warmup truncation, a batch-means CI stopping rule
	// (simulate until the 95% CI on mean latency and throughput is
	// within CIRelWidth of the mean) and a saturation short-circuit
	// that bails out of non-converging points early. The default fixed
	// mode reproduces pre-adaptive results bit-identically.
	Adaptive bool
	// CIRelWidth is the adaptive stopping target (0 = 0.05).
	CIRelWidth float64
	// MaxMeasure caps the adaptive measurement phase per seed, in
	// cycles (0 = 4x Measure).
	MaxMeasure int64
	// Ctx, when non-nil, cancels the run cooperatively: the cycle loops
	// check it every measurement bucket and the grid pool between
	// (load, seed) tasks, so an interrupted sweep stops mid-run.
	Ctx context.Context
}

// budget resolves the options against the config's scale defaults,
// leaving validation (negative windows, bad CI targets) to the
// simulation layer so every entry point reports the same errors.
func (o SteadyOptions) budget(c Config) sim.Budget {
	def := sim.DefaultBudget(scaleOf(c))
	b := sim.Budget{
		Warmup: o.Warmup, Measure: o.Measure, Seeds: o.Seeds,
		Adaptive: o.Adaptive, CIRelWidth: o.CIRelWidth, MaxMeasure: o.MaxMeasure,
		Ctx: o.Ctx,
	}
	if b.Warmup == 0 {
		b.Warmup = def.Warmup
	}
	if b.Measure == 0 {
		b.Measure = def.Measure
	}
	if b.Seeds == 0 {
		b.Seeds = def.Seeds
	}
	return b
}

// scaleOf classifies a config by node count, for defaulting budgets.
func scaleOf(c Config) sim.Scale {
	switch n := c.Nodes(); {
	case n <= 300:
		return sim.Tiny
	case n <= 4000:
		return sim.Small
	default:
		return sim.Paper
	}
}

// SteadyResult reports a steady-state measurement.
type SteadyResult struct {
	// Algo and Workload name the simulated mechanism and traffic pattern
	// (Algorithm.String and the ParseTraffic spec forms).
	Algo, Workload string
	// Load is the offered load in phits/(node·cycle); with 8-phit
	// packets and 10-byte phits at 1 GHz this is tenths of 10 GB/s.
	Load float64
	// AvgLatency is the mean packet latency in cycles, generation to
	// tail delivery (source queueing included).
	AvgLatency float64
	// P50 and P99 are latency percentiles in cycles.
	P50, P99 int64
	// Accepted is the delivered throughput in phits/(node·cycle).
	Accepted float64
	// MisroutedGlobal is the fraction of delivered packets that took a
	// nonminimal global hop; MisroutedLocal likewise for local hops.
	MisroutedGlobal, MisroutedLocal float64
	// AvgHops is the mean number of router-to-router hops.
	AvgHops float64
	// UtilLocal and UtilGlobal are the mean utilizations (0..1) of the
	// local and global links over the measurement window — useful for
	// spotting which tier saturates first (global links under ADV+1,
	// source-group local links under ADV+h).
	UtilLocal, UtilGlobal float64
	// OverflowFrac is the fraction of measured latencies at or above
	// the latency-histogram cap. Nonzero means the reported percentiles
	// are saturated at the cap (the true tail is worse) — typical when
	// the offered load exceeds the saturation throughput.
	OverflowFrac float64
	// Delivered counts packets measured across all seeds.
	Delivered uint64
	// Seeds is the number of averaged repeats.
	Seeds int
	// CIHalfLatency and CIHalfAccepted are the 95% confidence
	// half-widths of AvgLatency and Accepted from the adaptive engine's
	// batch-means estimator, combined across seeds (zero in fixed mode).
	CIHalfLatency, CIHalfAccepted float64
	// MeasuredCycles is the total number of measured cycles summed over
	// all seeds — Measure x Seeds in fixed mode, whatever the stopping
	// rule actually spent in adaptive mode.
	MeasuredCycles int64
	// WarmupCycles is the mean unmeasured warmup prefix per seed (the
	// MSER-truncated length in adaptive mode).
	WarmupCycles int64
	// Saturated reports that the adaptive saturation detector cut at
	// least one seed short: the point does not converge at this load
	// and its averages describe a growing transient.
	Saturated bool
	// Converged reports that every seed reached the relative-CI target
	// (adaptive mode only; always false in fixed mode).
	Converged bool
	// Congestion-management activity over the measurement windows,
	// summed across seeds; all zero unless Config.Congestion is enabled.
	// Marked counts delivered packets carrying ECN marks, Notified the
	// notifications replayed to sources, Throttled the injection
	// attempts deferred or suppressed by the AIMD throttle, and Shed the
	// injection attempts dropped at the NIC shed cap.
	Marked, Notified, Throttled, Shed uint64
	// Fault-injection activity over the measurement windows, summed
	// across seeds; all zero unless Config.Faults schedules faults.
	// Dropped counts packets killed on failing links or routers, Retried
	// the killed packets successfully re-injected by their sources, and
	// Unroutable the packets aimed at (or caught inside) a partitioned
	// region of the fabric.
	Dropped, Retried, Unroutable uint64
}

func fromSimSteady(r sim.SteadyResult) SteadyResult {
	return SteadyResult{
		Algo:            r.Algo,
		Workload:        r.Workload,
		Load:            r.Load,
		AvgLatency:      r.AvgLatency,
		P50:             r.P50,
		P99:             r.P99,
		Accepted:        r.Accepted,
		MisroutedGlobal: r.MisroutedGlobal,
		MisroutedLocal:  r.MisroutedLocal,
		AvgHops:         r.AvgHops,
		UtilLocal:       r.UtilLocal,
		UtilGlobal:      r.UtilGlobal,
		OverflowFrac:    r.OverflowFrac,
		Delivered:       r.Delivered,
		Seeds:           r.Seeds,
		CIHalfLatency:   r.CIHalfLatency,
		CIHalfAccepted:  r.CIHalfAccepted,
		MeasuredCycles:  r.MeasuredCycles,
		WarmupCycles:    r.WarmupCycles,
		Saturated:       r.Saturated,
		Converged:       r.Converged,
		Marked:          r.Marked,
		Notified:        r.Notified,
		Throttled:       r.Throttled,
		Shed:            r.Shed,
		Dropped:         r.Dropped,
		Retried:         r.Retried,
		Unroutable:      r.Unroutable,
	}
}

// RunSteady measures latency and throughput at one offered load
// (phits/(node·cycle), in [0,1]).
func RunSteady(c Config, t Traffic, load float64, opt SteadyOptions) (SteadyResult, error) {
	sc, err := c.internal()
	if err != nil {
		return SteadyResult{}, err
	}
	r, err := sim.RunSteadyBudget(sc, t.inner, load, opt.budget(c))
	if err != nil {
		return SteadyResult{}, err
	}
	return fromSimSteady(r), nil
}

// Sweep measures a whole load grid. Every (load, seed) point of the
// grid runs through one bounded worker pool (GOMAXPROCS workers) — a
// sweep of L loads no longer fans out into L independent seed pools.
// The returned slice is ordered like loads.
func Sweep(c Config, t Traffic, loads []float64, opt SteadyOptions) ([]SteadyResult, error) {
	if len(loads) == 0 {
		return nil, fmt.Errorf("cbar: empty load grid")
	}
	sc, err := c.internal()
	if err != nil {
		return nil, err
	}
	rs, err := sim.SweepSteadyBudget(sc, t.inner, loads, opt.budget(c))
	if err != nil {
		return nil, err
	}
	out := make([]SteadyResult, len(rs))
	for i, r := range rs {
		out[i] = fromSimSteady(r)
	}
	return out, nil
}

// TransientOptions sizes a traffic-switch experiment.
type TransientOptions struct {
	// Warmup cycles under the pre-switch pattern (rounded up to a
	// multiple of the ECtN exchange period, matching the paper's
	// Figure 7 scenario).
	Warmup int64
	// Pre and Post bound the recorded trace around the switch.
	Pre, Post int64
	// Bucket is the trace averaging width in cycles.
	Bucket int64
	// Seeds is the number of averaged repeats.
	Seeds int
}

// withDefaults fills zero-valued windows from the scale defaults.
// Explicitly negative values pass through so the simulation layer's
// validation rejects them with a clear error instead of silently
// substituting a default.
func (o TransientOptions) withDefaults(c Config) TransientOptions {
	def := sim.DefaultBudget(scaleOf(c))
	if o.Warmup == 0 {
		o.Warmup = def.TransientWarmup
	}
	if o.Pre == 0 {
		o.Pre = def.Pre
	}
	if o.Post == 0 {
		o.Post = def.Post
	}
	if o.Bucket == 0 {
		o.Bucket = def.Bucket
	}
	if o.Seeds == 0 {
		o.Seeds = def.Seeds
	}
	return o
}

// TransientResult is a traced response to a traffic-pattern switch.
type TransientResult struct {
	// Algo names the traced mechanism (Algorithm.String form).
	Algo string
	// Times are bucket centers in cycles relative to the switch
	// (negative = before).
	Times []int64
	// Latency is the mean latency of packets delivered in each bucket.
	Latency []float64
	// MisroutedPct is the percentage (0-100) of packets delivered in
	// each bucket that had taken a nonminimal global hop.
	MisroutedPct []float64
}

// RunTransient warms the network under `before`, switches to `after` at
// t=0 and traces per-bucket delivery latency and misrouted percentage
// (the Figures 7-9 experiments).
func RunTransient(c Config, before, after Traffic, load float64, opt TransientOptions) (TransientResult, error) {
	sc, err := c.internal()
	if err != nil {
		return TransientResult{}, err
	}
	opt = opt.withDefaults(c)
	r, err := sim.RunTransient(sc, before.inner, after.inner, load, sim.Budget{
		TransientWarmup: opt.Warmup, Pre: opt.Pre, Post: opt.Post, Bucket: opt.Bucket, Seeds: opt.Seeds})
	if err != nil {
		return TransientResult{}, err
	}
	return TransientResult{
		Algo:         r.Algo,
		Times:        r.Times,
		Latency:      r.Latency,
		MisroutedPct: r.MisroutedPct,
	}, nil
}

// ExperimentIDs lists the paper's reproducible tables and figures —
// fig5a-fig5c, fig6, fig7, fig8, fig9, fig10a, fig10b and "via" (the
// §VI-A saturated-counter analysis) — followed by the ablation studies
// (abl-*).
func ExperimentIDs() []string {
	var ids []string
	for _, e := range sim.AllExperiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// FigureIDs lists only the paper's tables and figures (no ablations).
func FigureIDs() []string {
	var ids []string
	for _, e := range sim.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// ExperimentTitle returns the human description of an experiment ID.
func ExperimentTitle(id string) (string, error) {
	e, ok := sim.FindExperiment(id)
	if !ok {
		return "", fmt.Errorf("cbar: unknown experiment %q", id)
	}
	return e.Title, nil
}

// RunExperiment regenerates one of the paper's tables or figures at the
// given scale, writing CSV (with a leading comment line) to w. Seeds and
// windows follow the scale's default budget; pass seeds > 0 to override
// the repeat count.
func RunExperiment(id string, s Scale, seeds int, w io.Writer) error {
	return RunExperimentOpts(id, s, ExperimentOptions{Seeds: seeds}, w)
}

// ExperimentOptions overrides parts of an experiment's scale-default
// budget. Zero values keep the defaults.
type ExperimentOptions struct {
	// Seeds overrides the repeat count per plotted point.
	Seeds int
	// Workers is the per-simulation shard worker count (Config.Workers
	// semantics: 0 = automatic split between grid parallelism and
	// intra-run sharding, 1 = sequential stepping). Results are
	// identical at every worker count.
	Workers int
	// Adaptive runs the experiment's steady-state points under the
	// adaptive measurement engine (MSER warmup truncation, batch-means
	// CI stopping, saturation short-circuit) instead of the fixed
	// windows; transient traces keep their fixed windows. Numbers are
	// statistically equivalent but not bit-identical to fixed mode.
	Adaptive bool
	// CIRelWidth is the adaptive stopping target (0 = 0.05).
	CIRelWidth float64
	// MaxMeasure caps the adaptive measurement phase per seed, in
	// cycles (0 = 4x the scale's fixed measurement window).
	MaxMeasure int64
	// Congestion enables the congestion-management layer in every
	// simulation of the experiment. The zero value keeps it off,
	// reproducing pre-congestion figures bit-identically.
	Congestion Congestion
	// Faults schedules the fault-injection plan in every simulation of
	// the experiment. The zero value keeps it off, reproducing pre-fault
	// figures bit-identically.
	Faults Faults
	// Ctx, when non-nil, cancels the experiment cooperatively (checked
	// every measurement bucket and between grid tasks).
	Ctx context.Context
}

// RunExperimentOpts is RunExperiment with budget overrides.
func RunExperimentOpts(id string, s Scale, opt ExperimentOptions, w io.Writer) error {
	e, ok := sim.FindExperiment(id)
	if !ok {
		return fmt.Errorf("cbar: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
	b := sim.DefaultBudget(s.internal())
	// 0 means scale default; anything else (negative included) reaches
	// the budget validation, matching RunSteady/Sweep.
	if opt.Seeds != 0 {
		b.Seeds = opt.Seeds
	}
	if opt.Seeds < 0 {
		// Some experiments (e.g. "via") never consume Seeds, so reject
		// here rather than rely on the experiment's own entry points.
		return fmt.Errorf("cbar: seeds %d must be >= 1 (0 = scale default)", opt.Seeds)
	}
	b.Workers = opt.Workers
	b.Congestion = opt.Congestion.internal()
	b.Faults = opt.Faults.internal()
	b.Ctx = opt.Ctx
	b.Adaptive = opt.Adaptive
	b.CIRelWidth = opt.CIRelWidth
	b.MaxMeasure = opt.MaxMeasure
	return e.Run(s.internal(), b, w)
}
