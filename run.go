package cbar

import (
	"context"
	"fmt"
	"io"

	"cbar/internal/sim"
	"cbar/internal/topology"
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
	// only sizes the measurement cap, 4x Measure per seed.
	Measure int64
	// Seeds is the number of independent repeats (averaged; run in
	// parallel).
	Seeds int
	// Adaptive replaces the fixed windows with the adaptive measurement
	// engine: MSER warmup truncation, a batch-means CI stopping rule
	// (simulate until the 95% CI on mean latency and throughput is
	// within 5% of the mean) and a saturation short-circuit that bails
	// out of non-converging points early. The default fixed mode
	// reproduces pre-adaptive results bit-identically.
	Adaptive bool
	// Ctx, when non-nil, cancels the run cooperatively: the cycle loops
	// check it every measurement bucket and the grid pool between
	// (load, seed) tasks, so an interrupted sweep stops mid-run.
	Ctx context.Context
}

// budget resolves the options against the config's scale defaults,
// leaving validation (negative windows) to the simulation layer so
// every entry point reports the same errors.
func (o SteadyOptions) budget(c Config) sim.Budget {
	def := sim.DefaultBudget(scaleOf(c))
	b := sim.Budget{
		Warmup: def.Warmup, Measure: def.Measure, Seeds: def.Seeds,
		Adaptive: o.Adaptive, Ctx: o.Ctx,
	}
	setIf(&b.Warmup, o.Warmup)
	setIf(&b.Measure, o.Measure)
	setIf(&b.Seeds, o.Seeds)
	return b
}

// scaleOf classifies a config by node count, for defaulting budgets.
func scaleOf(c Config) Scale {
	switch n := c.Nodes(); {
	case n <= 300:
		return Tiny
	case n <= 4000:
		return Small
	default:
		return Paper
	}
}

// SteadyResult reports a steady-state measurement: offered Load,
// AvgLatency with its P50/P99 percentiles, Accepted throughput, the
// MisroutedGlobal/MisroutedLocal fractions, link utilizations, the
// adaptive engine's confidence half-widths and Saturated/Converged
// verdicts, and the congestion-management and fault-injection counters.
// It is an alias of the engine's own result row;
// `go doc cbar/internal/sim.SteadyResult` documents every field.
type SteadyResult = sim.SteadyResult

// RunSteady measures latency and throughput at one offered load
// (phits/(node·cycle), in [0,1]).
func RunSteady(c Config, t Traffic, load float64, opt SteadyOptions) (SteadyResult, error) {
	return sim.RunSteadyBudget(c.internal(), t.inner, load, opt.budget(c))
}

// Sweep measures a whole load grid. Every (load, seed) point of the
// grid runs through one bounded worker pool (GOMAXPROCS workers) — a
// sweep of L loads no longer fans out into L independent seed pools.
// The pool starts the heaviest loads first (a point's cost rises with
// its load); that is the dispatch order only. The returned slice is
// ordered like loads, and no result depends on when its point ran.
func Sweep(c Config, t Traffic, loads []float64, opt SteadyOptions) ([]SteadyResult, error) {
	if len(loads) == 0 {
		return nil, fmt.Errorf("cbar: empty load grid")
	}
	return sim.SweepSteadyBudget(c.internal(), t.inner, loads, opt.budget(c))
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

// budget fills zero-valued windows from the scale defaults. Explicitly
// negative values pass through so the simulation layer's validation
// rejects them with a clear error instead of silently substituting a
// default.
func (o TransientOptions) budget(c Config) sim.Budget {
	def := sim.DefaultBudget(scaleOf(c))
	b := sim.Budget{
		TransientWarmup: def.TransientWarmup, Pre: def.Pre, Post: def.Post,
		Bucket: def.Bucket, Seeds: def.Seeds,
	}
	setIf(&b.TransientWarmup, o.Warmup)
	setIf(&b.Pre, o.Pre)
	setIf(&b.Post, o.Post)
	setIf(&b.Bucket, o.Bucket)
	setIf(&b.Seeds, o.Seeds)
	return b
}

// TransientResult is a traced response to a traffic-pattern switch:
// per-bucket Times (cycles relative to the switch), mean Latency and
// MisroutedPct of the named Algo. It is an alias of the engine's own
// trace type; `go doc cbar/internal/sim.TransientResult` documents
// every field.
type TransientResult = sim.TransientResult

// RunTransient warms the network under `before`, switches to `after` at
// t=0 and traces per-bucket delivery latency and misrouted percentage
// (the Figures 7-9 experiments).
func RunTransient(c Config, before, after Traffic, load float64, opt TransientOptions) (TransientResult, error) {
	return sim.RunTransient(c.internal(), before.inner, after.inner, load, opt.budget(c))
}

// ExperimentIDs lists the paper's reproducible tables and figures —
// fig5a-fig5c, fig6, fig7, fig8, fig9, fig10a, fig10b and "via" (the
// §VI-A saturated-counter analysis) — followed by the ablation studies
// (abl-*).
func ExperimentIDs() []string { return experimentIDs(sim.AllExperiments()) }

// FigureIDs lists only the paper's tables and figures (no ablations).
func FigureIDs() []string { return experimentIDs(sim.Experiments()) }

func experimentIDs(es []sim.Experiment) []string {
	ids := make([]string, len(es))
	for i, e := range es {
		ids[i] = e.ID
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
	if s.Params() == (topology.Params{}) {
		return fmt.Errorf("cbar: unknown scale %v (%s)", s, sim.ScaleGrammar())
	}
	if opt.Seeds < 0 {
		// Some experiments (e.g. "via") never consume Seeds, so reject
		// here rather than rely on the experiment's own entry points.
		return fmt.Errorf("cbar: seeds %d must be >= 1 (0 = scale default)", opt.Seeds)
	}
	b := sim.DefaultBudget(s)
	setIf(&b.Seeds, opt.Seeds)
	b.Workers = opt.Workers
	b.Congestion = opt.Congestion
	b.Faults = opt.Faults
	b.Ctx = opt.Ctx
	b.Adaptive = opt.Adaptive
	return e.Run(s, b, w)
}
