package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"cbar"
	"cbar/internal/stats"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units (the smoke test compares the two) and adds what the
// program does not need: the direction and the regression bound.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of the simulator sees, measured with
// tracing off. "host" metrics are wall-clock or memory of the simulator
// process; "sim" metrics are modelled quantities, exactly repeatable for
// fixed inputs.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s"},                           // host: construction of the largest config
	{name: "wall_s", unit: "s"},                            // host: one pass of the workload's public-API calls
	{name: "sim_cycles_per_s", unit: "1/s"},                // host: simulated cycles per wall second
	{name: "ns_per_packet_hop", unit: "ns"},                // host: wall time per measured packet-hop
	{name: "peak_rss_mb", unit: "MB"},                      // host: per-pass resident-set high-water mark
	{name: "bytes_per_node", unit: "B"},                    // host: live heap after set-up per node
	{name: "allocs_per_kcycle", unit: "1/kcycle"},          // host: mallocs per 1000 simulated cycles
	{name: "sim_accepted_phits", unit: "phits/node/cycle"}, // sim: mean accepted load over the points
	{name: "sim_latency_mean_cycles", unit: "cycles"},      // sim: delivered-weighted mean latency
}

// perLayerMetrics come from the traced pass of the layer driver.
var perLayerMetrics = []metricDef{
	{name: "topology.new_s", unit: "s"},
	{name: "router.build_s", unit: "s"},
	{name: "routing.new_s", unit: "s"},
	{name: "traffic.new_injector_s", unit: "s"},

	{name: "traffic.cycle_calls", unit: "count"},
	{name: "traffic.cycle_busy_s", unit: "s"},
	{name: "traffic.cycle_ns_per_pkt", unit: "ns"},
	{name: "traffic.generated_pkts", unit: "count"},
	{name: "traffic.blocked_pkts", unit: "count"},
	{name: "traffic.shed_pkts", unit: "count"},
	{name: "traffic.throttled", unit: "count"},
	{name: "traffic.retried", unit: "count"},
	{name: "traffic.accept_ratio", unit: "ratio"},
	{name: "traffic.next_arrival_calls", unit: "count"},
	{name: "traffic.next_arrival_busy_s", unit: "s"},

	{name: "routing.route_calls", unit: "count"},
	{name: "routing.route_busy_s", unit: "s"},
	{name: "routing.route_ns_per_call", unit: "ns"},
	{name: "routing.route_calls_per_grant", unit: "ratio"},
	{name: "routing.begin_cycle_busy_s", unit: "s"},
	{name: "routing.hook_calls", unit: "count"},
	{name: "routing.hook_busy_s", unit: "s"},
	{name: "routing.horizon_calls", unit: "count"},
	{name: "routing.misroute_global_frac", unit: "ratio"},
	{name: "routing.misroute_local_frac", unit: "ratio"},

	{name: "router.step_calls", unit: "count"},
	{name: "router.step_busy_s", unit: "s"},
	{name: "router.step_self_s", unit: "s"},
	{name: "router.step_us_p50", unit: "us"},
	{name: "router.step_us_p99", unit: "us"},
	{name: "router.step_self_ns_per_hop", unit: "ns"},
	{name: "router.grants", unit: "count"},
	{name: "router.delivered_pkts", unit: "count"},
	{name: "router.dropped_pkts", unit: "count"},
	{name: "router.unroutable_pkts", unit: "count"},
	{name: "router.marked_pkts", unit: "count"},
	{name: "router.notified", unit: "count"},
	{name: "router.inflight_mean", unit: "count"},
	{name: "router.util_local", unit: "ratio"},
	{name: "router.util_global", unit: "ratio"},
	{name: "router.elide_horizon_calls", unit: "count"},
	{name: "router.elide_horizon_busy_s", unit: "s"},
	{name: "router.elided_cycles_frac", unit: "ratio"},
	{name: "router.elide_jump_mean_cycles", unit: "cycles"},
	{name: "router.par_speedup", unit: "ratio"},
	{name: "router.par_efficiency", unit: "ratio"},

	{name: "stats.on_deliver_calls", unit: "count"},
	{name: "stats.on_deliver_busy_s", unit: "s"},
	{name: "stats.reduce_busy_s", unit: "s"},

	{name: "sim.loop_self_s", unit: "s"},
	{name: "sim.pool_efficiency", unit: "ratio"},
	{name: "sim.points", unit: "count"},
	{name: "sim.points_failed", unit: "count"},

	{name: "trace.overhead_frac", unit: "ratio"},
}

// stat summarises the samples of one metric: Value, the median, is what
// the metric reports; Samples keeps them in measurement order when there
// is more than one.
type stat struct {
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// metricSet collects the values of one metric table and enforces that
// every name is set exactly once.
type metricSet struct {
	defs []metricDef
	vals map[string][]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: map[string][]float64{}}
}

// set records the samples of a metric; an unknown or repeated name is a
// programming error in the benchmark.
func (m *metricSet) set(name string, samples ...float64) {
	if _, dup := m.vals[name]; dup {
		panic("benchmark: metric " + name + " set twice")
	}
	for _, d := range m.defs {
		if d.name == name {
			m.vals[name] = samples
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the table")
}

// stats returns every metric of the table, or an error naming the first
// one never set or not finite.
func (m *metricSet) stats() (map[string]stat, error) {
	out := make(map[string]stat, len(m.defs))
	for _, d := range m.defs {
		xs, ok := m.vals[d.name]
		if !ok || len(xs) == 0 {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		s := stat{Value: stats.Quantile(xs, 0.5), Min: xs[0], Max: xs[0], N: len(xs), Unit: d.unit}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("metric %s is not finite", d.name)
			}
			s.Min, s.Max = math.Min(s.Min, x), math.Max(s.Max, x)
		}
		if len(xs) > 1 {
			s.Samples = xs
		}
		out[d.name] = s
	}
	return out, nil
}

// pointDigest hashes the exactly-repeatable outputs of one point. Floats
// enter by their bit patterns: two passes agree only if they are
// bit-identical.
func pointDigest(r cbar.SteadyResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%x|%d|%x|%x|%d|%d|%x|%x|%x|%x|%x|%d|%d|%d|%d|%d|%d|%d",
		r.Algo, r.Workload, math.Float64bits(r.Load),
		r.Delivered, math.Float64bits(r.Accepted), math.Float64bits(r.AvgLatency), r.P50, r.P99,
		math.Float64bits(r.MisroutedGlobal), math.Float64bits(r.MisroutedLocal), math.Float64bits(r.AvgHops),
		math.Float64bits(r.UtilLocal), math.Float64bits(r.UtilGlobal),
		r.Marked, r.Notified, r.Throttled, r.Shed, r.Dropped, r.Retried, r.Unroutable)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// passDigest combines the point digests of one pass into the workload's
// sim_digest.
func passDigest(points []string) string {
	h := sha256.New()
	for _, p := range points {
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// checker is the correctness gate: every pass over the workload's points
// must return without error, satisfy the closed-form bounds and
// reproduce the first pass's digests point for point. An operation is
// one point of one pass; a point failing several checks fails once.
type checker struct {
	w  *workload
	in inputs
	// ref holds the first pass's point digests.
	ref       []string
	attempted int
	failed    int
	failures  []string
}

// pass checks one pass's results. errs carries per-point errors the pass
// itself hit (index -> message); a nil rs with a non-empty passErr fails
// every point.
func (c *checker) pass(label string, rs []cbar.SteadyResult, errs map[int]string, passErr error) {
	pts := c.w.points(c.in)
	c.attempted += len(pts)
	if passErr != nil {
		c.failed += len(pts)
		c.failures = append(c.failures, fmt.Sprintf("%s: %v", label, passErr))
		return
	}
	bad := map[int]string{}
	for i, msg := range errs {
		bad[i] = msg
	}
	if c.w.bounds != nil {
		for i, msg := range c.w.bounds(c.w, c.in, rs) {
			if _, seen := bad[i]; !seen {
				bad[i] = msg
			}
		}
	}
	digests := make([]string, len(rs))
	for i, r := range rs {
		digests[i] = pointDigest(r)
	}
	if c.ref == nil {
		c.ref = digests
	}
	for i := range digests {
		if _, seen := bad[i]; !seen && digests[i] != c.ref[i] {
			bad[i] = fmt.Sprintf("digest %s differs from the first pass's %s", digests[i], c.ref[i])
		}
	}
	c.failed += len(bad)
	idx := make([]int, 0, len(bad))
	for i := range bad {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		c.failures = append(c.failures, fmt.Sprintf("%s: %v load %.4f: %s", label, pts[i].alg, pts[i].load, bad[i]))
	}
}

// digest is the workload's sim_digest ("" before any pass succeeded).
func (c *checker) digest() string {
	if c.ref == nil {
		return ""
	}
	return passDigest(c.ref)
}
