// Package sim assembles networks and runs the paper's two experiment
// shapes: steady-state load sweeps (latency and accepted throughput
// after warmup, §IV-B) and transient traces (per-cycle latency and
// misrouted fraction around a traffic-pattern switch, §V-B/§V-C).
// Repeated runs over different seeds execute in parallel and are
// averaged, as the paper averages 10 simulations per plotted point.
package sim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/spec"
	"cbar/internal/stats"
	"cbar/internal/topology"
	"cbar/internal/traffic"
)

// Config is a complete simulation setup: the router micro-architecture,
// the routing mechanism and its policy options.
type Config struct {
	Router router.Config
	Algo   routing.Algo
	Opts   routing.Options
	// cores is the run's share of GOMAXPROCS, which the grid pool sets
	// (planWorkers); its injector draws arrivals ahead on them
	// (traffic.Injector.DrawAhead). Zero outside the pool: inline draws.
	cores int
}

// NewConfig returns the Table I configuration for the given topology and
// mechanism, with thresholds scaled to the topology (ScaledOptions).
func NewConfig(p topology.Params, algo routing.Algo) Config {
	return Config{
		Router: router.DefaultConfig(p),
		Algo:   algo,
		Opts:   ScaledOptions(p),
	}
}

// normalized returns the config with the VC counts the mechanism needs
// (VAL and PB require a fourth local VC, Table I).
func (c Config) normalized() Config {
	if need := routing.RequiredLocalVCs(c.Algo); c.Router.VCsLocal < need {
		c.Router.VCsLocal = need
	}
	return c
}

// BuildNetwork constructs a ready-to-run network for the config.
func BuildNetwork(c Config, seed uint64) (*router.Network, error) {
	c = c.normalized()
	alg, err := routing.New(c.Algo, c.Opts)
	if err != nil {
		return nil, err
	}
	return router.Build(c.Router, alg, seed)
}

// WorkloadKind enumerates the synthetic destination-pattern families:
// the paper's §IV-B set (UN, ADV, mix) plus the workload-engine families
// (hotspot, fixed permutations, group-tornado).
type WorkloadKind int

// Workload kinds.
const (
	Uniform WorkloadKind = iota
	Adversarial
	Mix
	Hotspot
	Shift
	Complement
	Tornado
)

// SourceSpec declares the arrival process of every node,
// topology-independently. The zero value is the paper's homogeneous
// Bernoulli process, which runs on the skip-sampling fast path.
type SourceSpec struct {
	// Bursty selects the two-state on-off (Markov-modulated) process.
	Bursty bool
	// OnMean/OffMean are mean ON/OFF phase lengths in cycles (Bursty).
	OnMean, OffMean float64
	// PeakLoad, when nonzero, fixes the ON-phase offered load in
	// phits/(node·cycle) and lets the duty cycle adapt to the aggregate.
	PeakLoad float64
	// SkewFrac/SkewShare describe heterogeneous per-node loads:
	// SkewFrac of the nodes (evenly spread over the id space) generate
	// SkewShare of the aggregate traffic. Zero values are homogeneous.
	SkewFrac, SkewShare float64
}

// homogeneous reports whether the spec is the plain Bernoulli process
// the fast path covers.
func (s SourceSpec) homogeneous() bool {
	return !s.Bursty && !s.skewed()
}

// skewed reports whether either skew field is set: a set skew is
// checked (checkSkew) even where its fraction is zero, as the grammar's
// skew clause is.
func (s SourceSpec) skewed() bool {
	return s.SkewFrac != 0 || s.SkewShare != 0
}

// Workload is a declarative traffic specification — destination pattern
// plus arrival process — resolved against a topology at run time.
type Workload struct {
	Kind WorkloadKind
	// Offset is the ADV group offset (Adversarial and Mix kinds) or the
	// node offset of the Shift permutation.
	Offset int
	// UniformFrac is the fraction of uniform traffic in a Mix.
	UniformFrac float64
	// HotFrac is the fraction of traffic aimed at the hot set, and
	// HotNodes its size (Hotspot kind).
	HotFrac  float64
	HotNodes int
	// Source selects the arrival process (zero: homogeneous Bernoulli).
	Source SourceSpec
}

// UN is the uniform random workload.
func UN() Workload { return Workload{Kind: Uniform} }

// ADV is the adversarial workload with the given group offset.
func ADV(offset int) Workload { return Workload{Kind: Adversarial, Offset: offset} }

// MixUN blends uniformFrac uniform traffic with ADV+offset for the rest
// (the Figure 6 workload).
func MixUN(uniformFrac float64, offset int) Workload {
	return Workload{Kind: Mix, Offset: offset, UniformFrac: uniformFrac}
}

// HotspotUN aims frac of the traffic at `hot` evenly-spread hot nodes,
// the rest uniformly.
func HotspotUN(frac float64, hot int) Workload {
	return Workload{Kind: Hotspot, HotFrac: frac, HotNodes: hot}
}

// ShiftPerm is the fixed node-shift permutation dest = src + offset.
func ShiftPerm(offset int) Workload { return Workload{Kind: Shift, Offset: offset} }

// ComplementPerm is the fixed complement permutation dest = N-1-src.
func ComplementPerm() Workload { return Workload{Kind: Complement} }

// TornadoPerm is the group-tornado permutation (maximal group offset).
func TornadoPerm() Workload { return Workload{Kind: Tornado} }

// WithBurst returns the workload with an on-off bursty arrival process:
// mean ON/OFF phase lengths in cycles, and optionally (peak > 0) a fixed
// ON-phase load in phits/(node·cycle).
func (w Workload) WithBurst(onMean, offMean, peak float64) Workload {
	w.Source.Bursty = true
	w.Source.OnMean, w.Source.OffMean, w.Source.PeakLoad = onMean, offMean, peak
	return w
}

// WithSkew returns the workload with heterogeneous per-node loads: frac
// of the nodes carry share of the aggregate traffic.
func (w Workload) WithSkew(frac, share float64) Workload {
	w.Source.SkewFrac, w.Source.SkewShare = frac, share
	return w
}

// Name returns the workload's canonical spec ("ADV-2", "mix(0.4,1)",
// "UN+burst(50,200)"), which ParseWorkload reads back to the same value.
func (w Workload) Name() string {
	var clauses []string
	for i := range trafficGrammar { // pattern rows first
		if c := &trafficGrammar[i]; c.in(w) {
			clauses = append(clauses, c.print(w))
		}
	}
	return strings.Join(clauses, "+")
}

// trafficClause is one row of the traffic grammar. A spec is a pattern
// clause, then modifiers (each at most once), joined by '+'; one that
// starts with a modifier has the UN pattern. name prints; it and alias
// parse, in any case. args are the fields the arguments fill, the first
// least required, the others printed only when nonzero. A glued row's
// signed offset follows its name ("ADV+1"); other rows take "name:A,B"
// or "name(A,B)" and print the second form.
type trafficClause struct {
	name, alias, usage string
	kind               WorkloadKind // a pattern row's pattern
	modifier, glued    bool
	args               func(w *Workload) []any
	least              int
	flag               func(w *Workload) *bool // a modifier's presence bit (else: first argument nonzero)
	check              func(w Workload) error  // rejects arguments the engine cannot honour
}

func offset(w *Workload) []any { return []any{&w.Offset} }

var trafficGrammar = []trafficClause{
	{name: "UN", alias: "uniform", usage: "un", kind: Uniform},
	{name: "ADV", usage: "adv+N", kind: Adversarial, args: offset, least: 1, glued: true},
	{name: "mix", usage: "mix:F,N", kind: Mix, least: 2,
		args: func(w *Workload) []any { return []any{&w.UniformFrac, &w.Offset} }},
	{name: "hotspot", usage: "hotspot:F,H", kind: Hotspot, least: 2,
		args: func(w *Workload) []any { return []any{&w.HotFrac, &w.HotNodes} }},
	{name: "perm:shift", usage: "perm:shift+K", kind: Shift, args: offset, least: 1, glued: true},
	{name: "perm:complement", alias: "perm:comp", usage: "perm:complement", kind: Complement},
	{name: "tornado", usage: "tornado", kind: Tornado},
	{name: "burst", usage: "+burst:ON,OFF[,PEAK]", modifier: true, least: 2,
		args: func(w *Workload) []any { return []any{&w.Source.OnMean, &w.Source.OffMean, &w.Source.PeakLoad} },
		flag: func(w *Workload) *bool { return &w.Source.Bursty }},
	{name: "skew", usage: "+skew:F,S", modifier: true, least: 2,
		args:  func(w *Workload) []any { return []any{&w.Source.SkewFrac, &w.Source.SkewShare} },
		check: func(w Workload) error { return checkSkew(w.Source.SkewFrac, w.Source.SkewShare) }},
}

// ParseWorkload resolves a case-insensitive traffic spec: any name Name
// prints, or the same clauses written "mix:0.4,1", "adv1", "burst:50,200".
// The spec splits before each '+' that starts a modifier ("+burst:",
// "+skew("), so a '+' inside an offset or a number ("1e+21") stays put.
func ParseWorkload(s string) (Workload, error) {
	var w Workload
	parts := strings.Split(strings.ToLower(strings.TrimSpace(s)), "+")
	for i := 0; i < len(parts); {
		cl := parts[i]
		for i++; i < len(parts) && !startsModifier(parts[i]); i++ {
			cl += "+" + parts[i]
		}
		c, args := matchClause(cl)
		switch {
		case c == nil:
			return Workload{}, fmt.Errorf("sim: unknown traffic %q; want %s", s, TrafficGrammar())
		case c.modifier && c.in(w):
			return Workload{}, fmt.Errorf("sim: traffic %q repeats its %s modifier", s, c.name)
		case !c.modifier:
			w.Kind = c.kind
		case c.flag != nil:
			*c.flag(&w) = true
		}
		if c.args != nil {
			if _, err := spec.Args(args, c.least, c.args(&w)); err != nil {
				return Workload{}, fmt.Errorf("sim: %s in %q must be %s: %v", c.name, s, c.usage, err)
			}
		}
		if c.check != nil {
			if err := c.check(w); err != nil {
				return Workload{}, err
			}
		}
	}
	return w, nil
}

// TrafficGrammar lists the traffic clauses for help and error text.
func TrafficGrammar() string {
	forms := make([]string, len(trafficGrammar))
	for i, c := range trafficGrammar {
		forms[i] = c.usage
	}
	return strings.Join(forms, " | ") + " (modifiers follow a pattern, or stand alone on un; name(A,B) reads as name:A,B)"
}

func (c *trafficClause) in(w Workload) bool {
	if c.flag != nil {
		return *c.flag(&w)
	}
	return !c.modifier && w.Kind == c.kind || c.modifier && spec.Format(c.args(&w)[0]) != "0"
}

func (c *trafficClause) print(w Workload) string {
	switch {
	case c.args == nil:
		return c.name
	case c.glued:
		return fmt.Sprintf("%s%+d", c.name, w.Offset)
	}
	return c.name + "(" + spec.FormatArgs(c.args(&w), c.least) + ")"
}

func startsModifier(part string) bool {
	i := strings.IndexAny(part, ":(")
	return i > 0 && slices.ContainsFunc(trafficGrammar, func(c trafficClause) bool { return c.modifier && c.name == part[:i] })
}

// matchClause returns the row a lower-cased clause spells, and its arguments.
func matchClause(cl string) (*trafficClause, string) {
	for i := range trafficGrammar {
		c := &trafficGrammar[i]
		for _, n := range []string{strings.ToLower(c.name), c.alias} {
			rest, ok := strings.CutPrefix(cl, n)
			switch {
			case !ok || n == "":
			case c.glued:
				return c, strings.TrimPrefix(rest, "+")
			case c.args == nil:
				if rest == "" {
					return c, ""
				}
			case strings.HasPrefix(rest, ":"):
				return c, rest[1:]
			case strings.HasPrefix(rest, "(") && strings.HasSuffix(rest, ")"):
				return c, rest[1 : len(rest)-1]
			}
		}
	}
	return nil, ""
}

// Pattern resolves the workload's destination pattern against a
// topology.
func (w Workload) Pattern(t *topology.Dragonfly) (traffic.Pattern, error) {
	switch w.Kind {
	case Uniform:
		return traffic.NewUniform(t)
	case Adversarial:
		return traffic.NewAdversarial(t, w.Offset)
	case Mix:
		un, err := traffic.NewUniform(t)
		if err != nil {
			return nil, err
		}
		adv, err := traffic.NewAdversarial(t, w.Offset)
		if err != nil {
			return nil, err
		}
		return traffic.NewMix(un, adv, w.UniformFrac)
	case Hotspot:
		return traffic.NewHotspot(t, w.HotFrac, w.HotNodes)
	case Shift:
		return traffic.NewShift(t, w.Offset)
	case Complement:
		return traffic.NewComplement(t)
	case Tornado:
		return traffic.NewTornado(t)
	}
	return nil, fmt.Errorf("sim: unknown workload kind %d", w.Kind)
}

// skewWeights materializes a skew spec as per-node rate weights: the
// chosen nodes (evenly spread over the id space, like hotspot's hot set)
// share `share` of the aggregate load.
func skewWeights(frac, share float64, nodes int) ([]float64, error) {
	if err := checkSkew(frac, share); err != nil {
		return nil, err
	}
	hot := int(math.Round(frac * float64(nodes)))
	if hot < 1 {
		hot = 1
	}
	if hot >= nodes {
		hot = nodes - 1
	}
	w := make([]float64, nodes)
	wHot := share * float64(nodes) / float64(hot)
	wCold := (1 - share) * float64(nodes) / float64(nodes-hot)
	for i := range w {
		w[i] = wCold
	}
	for i := 0; i < hot; i++ {
		w[i*nodes/hot] = wHot
	}
	return w, nil
}

func checkSkew(frac, share float64) error {
	if !(frac > 0 && frac < 1 && share >= 0 && share <= 1) { // negated, so NaN is rejected too
		return fmt.Errorf("sim: skew frac %v must be in (0,1) and share %v in [0,1]", frac, share)
	}
	return nil
}

// SteadyResult reports a steady-state measurement aggregated across
// seeds. It is the one declaration of the result row: the public
// package re-exports it as cbar.SteadyResult.
type SteadyResult struct {
	// Algo and Workload name the simulated mechanism and traffic pattern
	// (routing.Algo.String and Workload.Name, e.g. "hotspot(20%->8)").
	Algo, Workload string
	// Load is the offered load in phits/(node·cycle); with 8-phit
	// packets and 10-byte phits at 1 GHz this is tenths of 10 GB/s.
	Load float64
	// AvgLatency is the mean packet latency in cycles, generation to
	// tail delivery (NIC source queueing included).
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
	// OverflowFrac is the fraction of measured latencies at or above the
	// latency-histogram cap. Nonzero means P50/P99 are saturated at the
	// cap and the true tail is worse than reported — typical when the
	// offered load exceeds the saturation throughput.
	OverflowFrac float64
	// Delivered counts packets measured across all seeds' windows.
	Delivered uint64
	// Seeds is the number of averaged repeats.
	Seeds int
	// CIHalfLatency and CIHalfAccepted are the 95% confidence half-widths
	// of AvgLatency and Accepted from the adaptive engine's batch-means
	// estimator, combined across seeds. Zero in fixed-window mode.
	CIHalfLatency, CIHalfAccepted float64
	// MeasuredCycles is the total number of measured cycles summed over
	// all seeds (Measure x Seeds in fixed-window mode; whatever the
	// stopping rule actually spent in adaptive mode).
	MeasuredCycles int64
	// WarmupCycles is the mean unmeasured warmup prefix per seed: the
	// fixed Warmup window, or the MSER-truncated warmup in adaptive mode
	// (zero for a run short-circuited as saturated before measuring).
	WarmupCycles int64
	// Saturated reports that at least one seed's run was cut short by
	// the adaptive saturation detector (non-converging backlog growth or
	// persistent source throttling): the point does not reach a steady
	// state at this load and its averages describe a growing transient.
	Saturated bool
	// Converged reports that every seed reached the relative-CI target.
	// Meaningful only in adaptive mode; always false in fixed mode.
	Converged bool
	// Congestion-management activity over the measurement windows,
	// summed across seeds; all zero unless the run's router config
	// enables congestion management (router.CongestionConfig).
	Marked    uint64 // delivered packets carrying ECN marks
	Notified  uint64 // notifications replayed to sources
	Throttled uint64 // injection attempts deferred/suppressed by AIMD
	Shed      uint64 // injection attempts dropped at the NIC shed cap
	// Fault-injection activity over the measurement windows, summed
	// across seeds; all zero unless the run's router config schedules
	// faults (router.FaultConfig).
	Dropped    uint64 // packets killed on failing links/routers
	Retried    uint64 // killed packets successfully re-injected by their sources
	Unroutable uint64 // packets aimed at (or caught inside) a partitioned region
	// StallCycles is the longest span of a measurement window with
	// packets in flight and no delivery, the largest across seeds. A
	// healthy fabric delivers every few cycles; a wedged one shows a
	// span that lasts to the window's end.
	StallCycles int64
}

// steadyPoint builds one seed's steady-state system, run to end at most:
// w's pattern for the whole run, the injector seeded from the run seed.
func steadyPoint(c Config, w Workload, load float64, seed uint64, end int64) (*point, error) {
	return newPoint(c, w, load, seed, seed^0x9E3779B97F4A7C15, end)
}

// steadySeed runs one seed's fixed-window steady-state experiment:
// `warmup` cycles unmeasured, then a window over the next `measure`.
// The window opens exactly at cycle `warmup` because the first advance
// is bounded there. The histogram is returned beside the result for
// reduceSteady (see window.close).
func steadySeed(ctx context.Context, c Config, w Workload, load float64, warmup, measure int64, seed uint64) (SteadyResult, *stats.Histogram, error) {
	p, err := steadyPoint(c, w, load, seed, warmup+measure)
	if err != nil {
		return SteadyResult{}, nil, err
	}
	if err := p.advance(ctx, warmup); err != nil {
		return SteadyResult{}, nil, err
	}
	win := p.open()
	if err := p.advance(ctx, warmup+measure); err != nil {
		return SteadyResult{}, nil, err
	}
	return win.close(), win.hist, nil
}

// seedFor returns the run seed of repeat i, shared by every steady
// entry point so single runs and sweeps measure identical systems.
func seedFor(i int) uint64 { return uint64(i)*0x1000003 + 1 }

// RunSteadyBudget measures steady-state latency and throughput at one
// offered load: b.Warmup cycles are simulated unmeasured, then
// deliveries during b.Measure cycles are recorded; b.Seeds independent
// runs execute in parallel and are averaged (scalars) or merged (latency
// histograms, so cross-seed percentiles are exact). Budget.Adaptive
// selects the adaptive measurement instead of the fixed windows
// (SweepSteadyBudget).
func RunSteadyBudget(c Config, w Workload, load float64, b Budget) (SteadyResult, error) {
	rs, err := SweepSteadyBudget(c, w, []float64{load}, b)
	if err != nil {
		return SteadyResult{}, err
	}
	return rs[0], nil
}

// SweepSteadyBudget measures a whole load grid as one runGrid call, so
// the load×seed grid shares one bounded worker pool (see grid.go for
// the worker split, which reads c.Router.Workers). The returned slice
// is ordered like loads.
//
// With b.Adaptive set, each (load, seed) point runs the adaptive
// measurement engine (MSER warmup truncation, batch-means CI stopping,
// saturation short-circuit) instead of the fixed windows; see
// adaptiveSeed. The fixed path is the default.
func SweepSteadyBudget(c Config, w Workload, loads []float64, b Budget) ([]SteadyResult, error) {
	pts := make([]gridPoint, len(loads))
	for i, l := range loads {
		pts[i] = gridPoint{c, w, l}
	}
	return runGrid(pts, b)
}

// reduceSteady reduces per-seed results to one measurement: scalar
// metrics are averaged across seeds, while the latency distribution is
// merged and summarized exactly — averaging per-seed percentiles is
// biased for the tail (each seed's P99 is a noisy order statistic whose
// mean is not the P99 of the pooled distribution).
func reduceSteady(rs []SteadyResult, hists []*stats.Histogram) SteadyResult {
	var out SteadyResult
	out.Algo, out.Workload, out.Load = rs[0].Algo, rs[0].Workload, rs[0].Load
	out.Seeds, out.Converged = len(rs), true
	merged := hists[0]
	var ciLat2, ciAcc2 float64
	for i, r := range rs {
		if i > 0 {
			merged.Merge(hists[i])
		}
		out.Accepted += r.Accepted
		out.MisroutedGlobal += r.MisroutedGlobal
		out.MisroutedLocal += r.MisroutedLocal
		out.AvgHops += r.AvgHops
		out.UtilLocal += r.UtilLocal
		out.UtilGlobal += r.UtilGlobal
		out.Delivered += r.Delivered
		// Measurement accounting: seed CIs are independent, so the
		// half-width of the averaged estimate is sqrt(sum half^2)/n; cycle
		// costs add up, warmup lengths average, saturation is sticky and
		// convergence must hold for every seed.
		ciLat2 += r.CIHalfLatency * r.CIHalfLatency
		ciAcc2 += r.CIHalfAccepted * r.CIHalfAccepted
		out.MeasuredCycles += r.MeasuredCycles
		out.WarmupCycles += r.WarmupCycles
		out.Saturated = out.Saturated || r.Saturated
		out.Converged = out.Converged && r.Converged
		out.Marked += r.Marked
		out.Notified += r.Notified
		out.Throttled += r.Throttled
		out.Shed += r.Shed
		out.Dropped += r.Dropped
		out.Retried += r.Retried
		out.Unroutable += r.Unroutable
		out.StallCycles = max(out.StallCycles, r.StallCycles)
	}
	n := float64(len(rs))
	out.Accepted /= n
	out.MisroutedGlobal /= n
	out.MisroutedLocal /= n
	out.AvgHops /= n
	out.UtilLocal /= n
	out.UtilGlobal /= n
	out.WarmupCycles /= int64(len(rs))
	out.CIHalfLatency = math.Sqrt(ciLat2) / n
	out.CIHalfAccepted = math.Sqrt(ciAcc2) / n
	out.AvgLatency = merged.Mean()
	out.P50 = merged.Percentile(0.50)
	out.P99 = merged.Percentile(0.99)
	out.OverflowFrac = merged.OverflowFrac()
	return out
}

// TransientResult is the averaged trace of a traffic-switch experiment
// (re-exported as cbar.TransientResult): per-bucket mean latency and
// globally-misrouted percentage of the packets delivered in that
// bucket, on a time axis relative to the switch instant (negative =
// before the switch).
type TransientResult struct {
	// Algo names the traced mechanism (routing.Algo.String form).
	Algo string
	// BucketWidth is the trace averaging width in cycles.
	BucketWidth int64
	// Times are bucket centers in cycles relative to the switch
	// (negative = before).
	Times []int64
	// Latency[i] is the mean delivery latency of bucket i (NaN-free:
	// empty buckets are omitted from Times/Latency/MisroutedPct).
	Latency []float64
	// MisroutedPct[i] is the percentage (0-100) of packets delivered
	// in bucket i that had taken a nonminimal global hop.
	MisroutedPct []float64
}

// RunTransient warms the network with workload `before` for
// b.TransientWarmup cycles, switches to `after`, and traces deliveries
// from b.Pre cycles before the switch until b.Post cycles after it in
// b.Bucket-wide buckets, averaged over b.Seeds repeats on the grid pool
// (forEachRun; b.Ctx cancels cooperatively).
//
// Only the destination pattern switches: the arrival process is
// `before`'s for the whole run. An `after` workload carrying a
// different non-default source spec is rejected rather than silently
// measured under the wrong arrivals.
//
// The warmup is rounded up to a multiple of the ECtN exchange period so
// the pattern change coincides with a partial-array distribution, the
// scenario of Figure 7 ("the traffic changed exactly when the partial
// counters were being distributed").
func RunTransient(c Config, before, after Workload, load float64, b Budget) (TransientResult, error) {
	if err := b.validateTransient(); err != nil {
		return TransientResult{}, err
	}
	if !after.Source.homogeneous() && after.Source != before.Source {
		return TransientResult{}, fmt.Errorf("sim: transient arrival process is %q's for the whole run; %q's source spec would be ignored — put it on the pre-switch workload",
			before.Name(), after.Name())
	}
	warmup := b.TransientWarmup
	if p := c.Opts.ECtNPeriod; p > 0 && warmup%p != 0 {
		warmup += p - warmup%p
	}
	nBuckets := int((b.Pre + b.Post) / b.Bucket)
	latSeries := make([]*stats.TimeSeries, b.Seeds)
	misSeries := make([]*stats.TimeSeries, b.Seeds)
	err := forEachRun([]gridPoint{{c, before, load}}, b, func(i int, c Config) error {
		seed := uint64(i)*0x2000003 + 17
		p, err := newPoint(c, before, load, seed, seed^0xA5A5A5A5, warmup+b.Post, phase{warmup, after})
		if err != nil {
			return err
		}
		lat := stats.NewTimeSeries(-b.Pre, b.Bucket, nBuckets)
		mis := stats.NewTimeSeries(-b.Pre, b.Bucket, nBuckets)
		// The trace is a delivery observer, not a window: it buckets by
		// time relative to the switch and keeps no aggregate.
		p.net.OnDeliver = func(pkt *router.Packet, now int64) {
			rel := now - warmup
			lat.Add(rel, float64(now-pkt.GenTime))
			v := 0.0
			if pkt.GlobalMisroute {
				v = 100.0
			}
			mis.Add(rel, v)
		}
		latSeries[i], misSeries[i] = lat, mis
		// One advance to the end of the run: the pattern switch at cycle
		// `warmup` needs no jump cap, since arrival times never depend on
		// the pattern and a jump lands on the next arrival, which then
		// draws its destination from the schedule in force at that cycle.
		return p.advance(b.Ctx, warmup+b.Post)
	})
	if err != nil {
		return TransientResult{}, err
	}
	for i := 1; i < b.Seeds; i++ {
		latSeries[0].Merge(latSeries[i])
		misSeries[0].Merge(misSeries[i])
	}
	res := TransientResult{Algo: c.Algo.String(), BucketWidth: b.Bucket}
	for i := 0; i < latSeries[0].Buckets(); i++ {
		if latSeries[0].CountAt(i) == 0 {
			continue
		}
		res.Times = append(res.Times, latSeries[0].BucketTime(i)+b.Bucket/2)
		res.Latency = append(res.Latency, latSeries[0].Mean(i))
		res.MisroutedPct = append(res.MisroutedPct, misSeries[0].Mean(i))
	}
	return res, nil
}

// MeanSaturatedContention runs the §VI-A diagnostic: uniform traffic at
// the given (over)load with the Base mechanism, returning the mean
// contention-counter value per output port averaged over the final
// `sample` cycles. Under saturation the paper estimates it at the mean
// number of VCs per input port (2.74 for the Table I router).
func MeanSaturatedContention(ctx context.Context, c Config, load float64, warmup, sample int64, seed uint64) (float64, error) {
	c.Algo = routing.Base
	p, err := newPoint(c, UN(), load, seed, seed, warmup+sample)
	if err != nil {
		return 0, err
	}
	if err := p.advance(ctx, warmup); err != nil {
		return 0, err
	}
	// The observable is the per-cycle counter trajectory itself, which a
	// clock jump would undersample: advance one cycle at a time.
	var acc stats.Welford
	ports := float64(p.net.Topo.Radix())
	for end := warmup + sample; p.net.Now() < end; {
		if err := p.advance(ctx, p.net.Now()+1); err != nil {
			return 0, err
		}
		for _, r := range p.net.Routers {
			acc.Add(float64(r.Contention.Sum()) / ports)
		}
	}
	return acc.Mean(), nil
}
