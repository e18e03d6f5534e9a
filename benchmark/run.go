package main

import (
	"fmt"
	"runtime"
	"time"

	"cbar"
)

// report is the result of one workload: what the results file stores and
// -compare reads.
type report struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Workers  int    `json:"workers"`
	Points   int    `json:"points"`
	// SimCycles is the number of simulated cycles of one pass.
	SimCycles int64 `json:"sim_cycles"`
	// Attempted and Failed count operations — one point of one pass —
	// and OpsFailedFrac is their ratio.
	Attempted     int      `json:"attempted"`
	Failed        int      `json:"failed"`
	OpsFailedFrac float64  `json:"ops_failed_frac"`
	Failures      []string `json:"failures,omitempty"`
	// Error is why a measurement could not be completed ("" = it was).
	Error string `json:"error,omitempty"`
	// Ungated is why BENCHMARK.json does not list the workload ("" = it
	// does).
	Ungated string `json:"ungated,omitempty"`
	// SimDigest hashes the exactly-repeatable outputs of every point.
	SimDigest string `json:"sim_digest"`
	// PeakRSSPerPass is true when the kernel let every pass reset the
	// resident-set high-water mark, so peak_rss_mb is the peak of one
	// pass; false means it is the peak of the process so far.
	PeakRSSPerPass bool `json:"peak_rss_per_pass"`
	// SampleEvery is N of the 1-in-N sampling of routing and stats spans.
	SampleEvery int             `json:"trace_sample_every,omitempty"`
	EndToEnd    map[string]stat `json:"end_to_end,omitempty"`
	PerLayer    map[string]stat `json:"per_layer,omitempty"`
}

const (
	// tracedSetupSamples sizes the traced pass's per-stage set-up spans.
	tracedSetupSamples = 5
	// minRounds is the fewest untraced passes a timing median rests on.
	minRounds = 3
)

// endToEnd measures the end-to-end metrics: `rounds` untraced passes
// through the public API (the workload's own count when 0), then the
// set-up samples. rssPerPass reports whether every pass could reset the
// resident-set high-water mark.
func (w *workload) endToEnd(in inputs, rounds int, ck *checker) (metrics map[string]stat, rssPerPass bool, err error) {
	if rounds == 0 {
		rounds = w.passes
	}
	var walls, cps, nsHop, allocs, rss []float64
	var first []cbar.SteadyResult
	kcycles := float64(w.cycles()) / 1000
	rssPerPass = true
	for r := 0; r < rounds; r++ {
		p, err := w.runAPI(in)
		ck.pass(fmt.Sprintf("api round %d", r+1), p.results, nil, err)
		if err != nil {
			return nil, false, err
		}
		rssPerPass = rssPerPass && p.rssReset
		if first == nil {
			first = p.results
		}
		t := totals(p.results)
		walls = append(walls, p.wall.Seconds())
		cps = append(cps, float64(w.cycles())/p.wall.Seconds())
		nsHop = append(nsHop, float64(p.wall.Nanoseconds())/t.packetHops)
		allocs = append(allocs, float64(p.mallocs)/kcycles)
		rss = append(rss, p.peakRSSMB)
	}
	samples, err := w.measureSetup(in, w.setupSamples)
	if err != nil {
		return nil, false, err
	}
	setup := make([]float64, len(samples))
	for i, s := range samples {
		setup[i] = s.spans.total().Seconds()
	}
	t := totals(first)
	m := newMetricSet(endToEndMetrics)
	m.set("setup_s", setup...)
	m.set("wall_s", walls...)
	m.set("sim_cycles_per_s", cps...)
	m.set("ns_per_packet_hop", nsHop...)
	m.set("peak_rss_mb", rss...)
	m.set("bytes_per_node", float64(samples[0].heapBytes)/float64(cbar.NewConfig(w.scale, w.setupAlg).Nodes()))
	m.set("allocs_per_kcycle", allocs...)
	m.set("sim_accepted_phits", t.accepted)
	m.set("sim_latency_mean_cycles", t.latency)
	metrics, err = m.stats()
	return metrics, rssPerPass, err
}

// drivePass replays every point on the layer driver with the given
// worker count, traced into tr unless it is nil.
func (w *workload) drivePass(in inputs, workers int, tr *trace) (rs []cbar.SteadyResult, total time.Duration, errs map[int]string) {
	pts := w.points(in)
	rs = make([]cbar.SteadyResult, len(pts))
	errs = map[int]string{}
	for i, pt := range pts {
		runtime.GC()
		r, d, err := w.drivePoint(pt, in, workers, tr)
		if err != nil {
			errs[i] = err.Error()
		}
		rs[i] = r
		total += d
	}
	return rs, total, errs
}

// ratio returns a/b, or ifZero when b is zero.
func ratio(a, b, ifZero float64) float64 {
	if b == 0 {
		return ifZero
	}
	return a / b
}

// perLayer runs the traced pass: one public-API pass (for the digest and
// the pooled wall clock), one untraced and one traced replay on the layer
// driver, and on a parallel workload a second traced replay on one
// worker, then reduces the spans and counts to the per-layer metrics.
func (w *workload) perLayer(in inputs, ck *checker) (map[string]stat, error) {
	api, err := w.runAPI(in)
	ck.pass("api pass", api.results, nil, err)
	if err != nil {
		return nil, err
	}
	urs, untraced, uerrs := w.drivePass(in, w.workers, nil)
	ck.pass("untraced driver", urs, uerrs, nil)
	var a trace
	trs, tracedTotal, terrs := w.drivePass(in, w.workers, &a)
	ck.pass("traced driver", trs, terrs, nil)
	n := float64(len(trs))
	cycles := w.cycles()
	workers := float64(w.workers)

	// Routing spans run on the shard goroutines: their summed busy time
	// is CPU time, of which 1/workers lies on Step's critical path
	// (exact on one worker, a balanced-shard estimate otherwise).
	routeBusy, hookBusy := a.route.busy(), a.hooks.busy()
	deliverBusy := a.deliver.busy()
	stepSelf := a.stepBusy - time.Duration(float64(routeBusy+hookBusy)/workers) - a.beginBusy - deliverBusy
	loopSelf := a.loop - a.cycleBusy - a.nextArrivalBusy - a.stepBusy - a.horizonBusy

	speedup := 1.0
	if w.workers > 1 {
		var seq trace
		srs, _, serrs := w.drivePass(in, 1, &seq)
		ck.pass("traced driver, 1 worker", srs, serrs, nil)
		speedup = ratio(seq.stepBusy.Seconds(), a.stepBusy.Seconds(), 0)
	}

	samples, err := w.measureSetup(in, tracedSetupSamples)
	if err != nil {
		return nil, err
	}
	var topoNew, build, routingNew, newInj []float64
	for _, s := range samples {
		topoNew = append(topoNew, s.spans.topologyNew.Seconds())
		build = append(build, (s.spans.routerBuild - s.spans.topologyNew).Seconds())
		routingNew = append(routingNew, s.spans.routingNew.Seconds())
		newInj = append(newInj, s.spans.newInjector.Seconds())
	}

	m := newMetricSet(perLayerMetrics)
	m.set("topology.new_s", topoNew...)
	m.set("router.build_s", build...)
	m.set("routing.new_s", routingNew...)
	m.set("traffic.new_injector_s", newInj...)

	m.set("traffic.cycle_calls", float64(a.cycleCalls))
	m.set("traffic.cycle_busy_s", a.cycleBusy.Seconds())
	m.set("traffic.cycle_ns_per_pkt", ratio(float64(a.cycleBusy.Nanoseconds()), float64(a.generated), 0))
	m.set("traffic.generated_pkts", float64(a.generated))
	m.set("traffic.blocked_pkts", float64(a.blocked))
	m.set("traffic.shed_pkts", float64(a.shed))
	m.set("traffic.throttled", float64(a.throttled))
	m.set("traffic.retried", float64(a.retried))
	m.set("traffic.accept_ratio", ratio(float64(a.generated), float64(a.generated+a.blocked+a.shed+a.throttled), 1))
	m.set("traffic.next_arrival_calls", float64(a.nextArrivalCalls))
	m.set("traffic.next_arrival_busy_s", a.nextArrivalBusy.Seconds())

	m.set("routing.route_calls", float64(a.route.calls))
	m.set("routing.route_busy_s", routeBusy.Seconds())
	m.set("routing.route_ns_per_call", ratio(float64(routeBusy.Nanoseconds()), float64(a.route.calls), 0))
	m.set("routing.route_calls_per_grant", ratio(float64(a.route.calls), float64(a.grants), 0))
	m.set("routing.begin_cycle_busy_s", a.beginBusy.Seconds())
	m.set("routing.hook_calls", float64(a.hooks.calls))
	m.set("routing.hook_busy_s", hookBusy.Seconds())
	m.set("routing.horizon_calls", float64(a.algHorizonCalls))
	m.set("routing.misroute_global_frac", ratio(float64(a.misG), float64(a.counts), 0))
	m.set("routing.misroute_local_frac", ratio(float64(a.misL), float64(a.counts), 0))

	m.set("router.step_calls", float64(a.stepCalls))
	m.set("router.step_busy_s", a.stepBusy.Seconds())
	m.set("router.step_self_s", stepSelf.Seconds())
	m.set("router.step_us_p50", percentileNs(a.stepNs, 0.50)/1000)
	m.set("router.step_us_p99", percentileNs(a.stepNs, 0.99)/1000)
	m.set("router.step_self_ns_per_hop", ratio(float64(stepSelf.Nanoseconds()), float64(a.grants), 0))
	m.set("router.grants", float64(a.grants))
	m.set("router.delivered_pkts", float64(a.delivered))
	m.set("router.dropped_pkts", float64(a.dropped))
	m.set("router.unroutable_pkts", float64(a.unroutable))
	m.set("router.marked_pkts", float64(a.marked))
	m.set("router.notified", float64(a.notified))
	m.set("router.inflight_mean", a.inflightCyc/float64(cycles))
	m.set("router.util_local", a.utilLocal/n)
	m.set("router.util_global", a.utilGlobal/n)
	m.set("router.elide_horizon_calls", float64(a.horizonCalls))
	m.set("router.elide_horizon_busy_s", a.horizonBusy.Seconds())
	m.set("router.elided_cycles_frac", float64(a.elided)/float64(cycles))
	m.set("router.elide_jump_mean_cycles", ratio(float64(a.elided), float64(a.jumps), 0))
	m.set("router.par_speedup", speedup)
	m.set("router.par_efficiency", speedup/workers)

	m.set("stats.on_deliver_calls", float64(a.deliver.calls))
	m.set("stats.on_deliver_busy_s", deliverBusy.Seconds())
	m.set("stats.reduce_busy_s", a.reduceBusy.Seconds())

	m.set("sim.loop_self_s", loopSelf.Seconds())
	// Core-seconds of point work over core-seconds the pooled API pass
	// had: how well the sweep pool (or the shard workers) kept
	// GOMAXPROCS cores busy.
	m.set("sim.pool_efficiency", untraced.Seconds()*workers/(float64(runtime.GOMAXPROCS(0))*api.wall.Seconds()))
	m.set("sim.points", n)
	m.set("sim.points_failed", float64(ck.failed))

	m.set("trace.overhead_frac", (tracedTotal-untraced).Seconds()/untraced.Seconds())
	return m.stats()
}

// run measures one workload. trace selects the end-to-end metrics ("0"),
// the per-layer metrics ("1") or both. A measurement that could not be
// completed leaves its reason in the report's Error, which fails the run.
func (w *workload) run(seed uint64, rounds int, trace string) *report {
	in := w.inputs(seed)
	ck := &checker{w: w, in: in}
	rep := &report{
		Workload: w.name, Seed: seed, Workers: w.workers,
		Points: len(w.points(in)), SimCycles: w.cycles(), Ungated: w.ungated,
	}
	var err error
	if trace != "1" {
		rep.EndToEnd, rep.PeakRSSPerPass, err = w.endToEnd(in, rounds, ck)
	}
	if err == nil && trace != "0" {
		rep.SampleEvery = sampleEvery
		rep.PerLayer, err = w.perLayer(in, ck)
	}
	rep.Attempted, rep.Failed, rep.Failures = ck.attempted, ck.failed, ck.failures
	rep.OpsFailedFrac = ratio(float64(ck.failed), float64(ck.attempted), 1)
	rep.SimDigest = ck.digest()
	if err != nil {
		rep.Error = err.Error()
	}
	return rep
}
