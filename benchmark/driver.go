package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"cbar"
	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/sim"
	"cbar/internal/stats"
	"cbar/internal/topology"
	"cbar/internal/traffic"
)

// The layer driver: the benchmark's own single-threaded replay of a
// steady-state point over the layers' public functions, with in-memory
// spans and counts around each call when a trace is requested. It
// mirrors sim.steadySeed step for step — config normalisation, seed
// derivation, elision, window bookkeeping and the result reduction — so
// its digest must equal the public API's; that equality is what makes
// the per-layer numbers attributable to the end-to-end ones.

// Seed derivation of the public API's repeat 0 (sim.seedFor(0) and the
// injector seed steadySeed derives from it).
const (
	apiRunSeed      = uint64(1)
	apiInjectorSeed = apiRunSeed ^ 0x9E3779B97F4A7C15
)

// latencyHistCap mirrors sim's latency histogram cap.
const latencyHistCap = 1 << 15

// sampleEvery is N of the 1-in-N span sampling applied to the calls made
// from inside Step (Route, the four hooks, OnDeliver): every call is
// counted, every N-th is timed and the busy time scaled by N. Timing
// each of these sub-100 ns calls would cost more than the calls.
const sampleEvery = 32

var epoch = time.Now()

// clock returns monotonic nanoseconds since process start.
func clock() int64 { return int64(time.Since(epoch)) }

// clockCost is the time one clock read adds to a span it brackets (the
// median gap between back-to-back reads). Sampled spans are tens of
// nanoseconds long, so the read itself would otherwise be a large part
// of what they report.
var clockCost = func() int64 {
	gaps := make([]float64, 1001)
	for i := range gaps {
		t := clock()
		gaps[i] = float64(clock() - t)
	}
	return int64(stats.Quantile(gaps, 0.5))
}()

// sampled accumulates a counted, 1-in-sampleEvery timed span.
type sampled struct {
	calls   uint64
	timed   uint64
	timedNs int64
}

// due counts one call and reports whether it should be timed.
func (s *sampled) due() bool {
	s.calls++
	return s.calls%sampleEvery == 0
}

func (s *sampled) add(ns int64) {
	s.timed++
	s.timedNs += ns
}

// busy estimates the span's total busy time from the timed sample.
func (s *sampled) busy() time.Duration {
	if s.timed == 0 {
		return 0
	}
	ns := s.timedNs - int64(s.timed)*clockCost
	if ns < 0 {
		ns = 0
	}
	return time.Duration(float64(ns) * float64(s.calls) / float64(s.timed))
}

func (s *sampled) merge(o sampled) {
	s.calls += o.calls
	s.timed += o.timed
	s.timedNs += o.timedNs
}

// algShard holds the routing-layer counters of one network shard. Route
// and the hooks run on the shard's worker goroutine under parallel
// stepping, so each shard owns its block; the padding keeps blocks on
// separate cache lines.
type algShard struct {
	route  sampled
	hooks  sampled
	grants uint64
	_      [64]byte
}

// tracedAlg is the forwarding wrapper installed as the network's
// Algorithm: it counts and samples every call into the routing layer
// and forwards the optional CycleHorizon and StateChecker extensions.
type tracedAlg struct {
	inner    router.Algorithm
	shards   []algShard
	byRouter []*algShard // router id -> its shard's counters

	beginBusy    int64
	horizonCalls uint64
}

func (a *tracedAlg) shard(r *router.Router) *algShard { return a.byRouter[r.ID] }

func (a *tracedAlg) Name() string { return a.inner.Name() }

func (a *tracedAlg) Attach(n *router.Network) {
	a.shards = make([]algShard, n.Workers())
	a.byRouter = make([]*algShard, n.Topo.Routers)
	for id := range a.byRouter {
		a.byRouter[id] = &a.shards[n.ShardOfGroup(n.Topo.GroupOf(id))]
	}
	a.inner.Attach(n)
}

func (a *tracedAlg) BeginCycle(n *router.Network) {
	t := clock()
	a.inner.BeginCycle(n)
	a.beginBusy += clock() - t
}

func (a *tracedAlg) Route(r *router.Router, p *router.Packet, port, vc int) router.Request {
	s := &a.shard(r).route
	if !s.due() {
		return a.inner.Route(r, p, port, vc)
	}
	t := clock()
	req := a.inner.Route(r, p, port, vc)
	s.add(clock() - t)
	return req
}

func (a *tracedAlg) OnArrive(r *router.Router, p *router.Packet, port, vc int) {
	s := &a.shard(r).hooks
	if !s.due() {
		a.inner.OnArrive(r, p, port, vc)
		return
	}
	t := clock()
	a.inner.OnArrive(r, p, port, vc)
	s.add(clock() - t)
}

func (a *tracedAlg) OnHead(r *router.Router, p *router.Packet, port, vc int) {
	s := &a.shard(r).hooks
	if !s.due() {
		a.inner.OnHead(r, p, port, vc)
		return
	}
	t := clock()
	a.inner.OnHead(r, p, port, vc)
	s.add(clock() - t)
}

func (a *tracedAlg) OnGrant(r *router.Router, p *router.Packet, port, vc, out, outVC int) {
	sh := a.shard(r)
	sh.grants++
	if !sh.hooks.due() {
		a.inner.OnGrant(r, p, port, vc, out, outVC)
		return
	}
	t := clock()
	a.inner.OnGrant(r, p, port, vc, out, outVC)
	sh.hooks.add(clock() - t)
}

func (a *tracedAlg) OnDequeue(r *router.Router, p *router.Packet, port, vc int) {
	s := &a.shard(r).hooks
	if !s.due() {
		a.inner.OnDequeue(r, p, port, vc)
		return
	}
	t := clock()
	a.inner.OnDequeue(r, p, port, vc)
	s.add(clock() - t)
}

// NextAlgCycle forwards router.CycleHorizon; an inner algorithm without
// a horizon stays un-elidable, as it would be unwrapped.
func (a *tracedAlg) NextAlgCycle(n *router.Network) (int64, bool) {
	a.horizonCalls++
	h, ok := a.inner.(router.CycleHorizon)
	if !ok {
		return 0, false
	}
	return h.NextAlgCycle(n)
}

// CheckState forwards router.StateChecker.
func (a *tracedAlg) CheckState(n *router.Network) error {
	if sc, ok := a.inner.(router.StateChecker); ok {
		return sc.CheckState(n)
	}
	return nil
}

// setupSpans are the set-up stages of one construction.
type setupSpans struct {
	topologyNew time.Duration // topology.New alone, timed on a separate call
	routingNew  time.Duration
	routerBuild time.Duration // router.Build, its internal topology.New included
	newInjector time.Duration // pattern + injector
}

func (s setupSpans) total() time.Duration { return s.routingNew + s.routerBuild + s.newInjector }

// trace is everything recorded around the points of one traced pass;
// drivePoint adds each point's spans and counts to it.
type trace struct {
	loop time.Duration // the cycle loop, the parent span of every layer call

	cycleCalls       uint64
	cycleBusy        time.Duration
	nextArrivalCalls uint64
	nextArrivalBusy  time.Duration

	stepCalls    uint64
	stepBusy     time.Duration
	stepNs       []int32 // per-call Step durations
	horizonCalls uint64
	horizonBusy  time.Duration
	jumps        uint64
	elided       int64   // cycles skipped by ElideTo
	inflightCyc  float64 // Σ InFlight × cycles, for the time-averaged mean

	route, hooks       sampled
	grants             uint64
	beginBusy          time.Duration
	algHorizonCalls    uint64
	deliver            sampled
	reduceBusy         time.Duration
	misG, misL, counts uint64

	generated, blocked, shed, throttled, retried     uint64
	delivered, dropped, unroutable, marked, notified uint64
	utilLocal, utilGlobal                            float64
}

// simConfig builds the internal configuration of one point the way
// cbar.Config.internal does for a NewConfig-built public config: Table I
// defaults for the scale, then workers, congestion and faults.
func (w *workload) simConfig(alg cbar.Algorithm, in inputs, workers int) (sim.Config, error) {
	algo, err := routing.Parse(alg.String())
	if err != nil {
		return sim.Config{}, err
	}
	pub, _, err := w.apiConfig(alg, in)
	if err != nil {
		return sim.Config{}, err
	}
	c := sim.NewConfig(topology.Params{P: pub.P, A: pub.A, H: pub.H}, algo)
	c.Router.Workers = workers
	c.Router.Congestion = router.CongestionConfig{Enabled: pub.Congestion.Enabled}
	f := pub.Faults
	c.Router.Faults = router.FaultConfig{
		RandomPct: f.RandomPct, RandomAt: f.RandomAt, RandomSeed: f.RandomSeed,
		RetryLimit: f.RetryLimit, RetryBase: f.RetryBase,
	}
	for _, e := range f.Events {
		c.Router.Faults.Events = append(c.Router.Faults.Events, router.FaultEvent{
			Kind: router.FaultKind(e.Kind), Router: int32(e.Router), Port: int16(e.Port), Cycle: e.Cycle,
		})
	}
	// sim.Config.normalized: VAL and PB need a fourth local VC.
	if need := routing.RequiredLocalVCs(algo); c.Router.VCsLocal < need {
		c.Router.VCsLocal = need
	}
	return c, nil
}

// construct builds the network and injector of one point, timing each
// set-up stage. With traced set, the routing algorithm is wrapped.
func (w *workload) construct(c sim.Config, load float64, traced bool) (*router.Network, *traffic.Injector, *tracedAlg, setupSpans, error) {
	var sp setupSpans
	t0 := clock()
	alg, err := routing.New(c.Algo, c.Opts)
	if err != nil {
		return nil, nil, nil, sp, err
	}
	var ta *tracedAlg
	if traced {
		ta = &tracedAlg{inner: alg}
		alg = ta
	}
	t1 := clock()
	net, err := router.Build(c.Router, alg, apiRunSeed)
	if err != nil {
		return nil, nil, nil, sp, err
	}
	t2 := clock()
	pat, err := w.pattern.Pattern(net.Topo)
	if err != nil {
		return nil, nil, nil, sp, err
	}
	// sim.Workload.injector: the Bernoulli fast path for a homogeneous
	// source spec, the calendar path for bursty sources. No benchmark
	// workload uses skewed weights.
	src := w.pattern.Source
	if src.SkewFrac != 0 {
		return nil, nil, nil, sp, fmt.Errorf("benchmark driver does not model skewed sources")
	}
	var inj *traffic.Injector
	if src.Bursty {
		inj, err = traffic.NewSourceInjector(net, traffic.Constant(pat), load, apiInjectorSeed, traffic.SourceSpec{
			Kind: traffic.OnOffArrivals, OnMean: src.OnMean, OffMean: src.OffMean, PeakLoad: src.PeakLoad,
		})
	} else {
		inj, err = traffic.NewInjector(net, traffic.Constant(pat), load, apiInjectorSeed)
	}
	if err != nil {
		return nil, nil, nil, sp, err
	}
	t3 := clock()
	sp.routingNew = time.Duration(t1 - t0)
	sp.routerBuild = time.Duration(t2 - t1)
	sp.newInjector = time.Duration(t3 - t2)
	return net, inj, ta, sp, nil
}

// drivePoint replays one point on the layer driver, adding its spans and
// counts to tr. tr == nil runs it untraced: the same loop with every clock read and wrapper compiled
// out of the path, which is the baseline trace.overhead_frac compares
// against. It returns the point's result in the public API's form and
// the whole-point duration.
func (w *workload) drivePoint(pt point, in inputs, workers int, tr *trace) (cbar.SteadyResult, time.Duration, error) {
	c, err := w.simConfig(pt.alg, in, workers)
	if err != nil {
		return cbar.SteadyResult{}, 0, err
	}
	start := clock()
	net, inj, ta, _, err := w.construct(c, pt.load, tr != nil)
	if err != nil {
		return cbar.SteadyResult{}, 0, err
	}
	warmup, measure := w.warmup, w.measure
	var (
		hist    = stats.NewHistogram(latencyHistCap)
		hops    stats.Welford
		phits   uint64
		misG    uint64
		misL    uint64
		counted uint64
	)
	observe := func(p *router.Packet, now int64) {
		if now < warmup {
			return
		}
		hist.Add(now - p.GenTime)
		hops.Add(float64(p.TotalHops))
		phits += uint64(p.Size)
		if p.GlobalMisroute {
			misG++
		}
		if p.LocalMisroutes > 0 {
			misL++
		}
		counted++
	}
	net.OnDeliver = observe
	if tr != nil {
		net.OnDeliver = func(p *router.Packet, now int64) {
			if !tr.deliver.due() {
				observe(p, now)
				return
			}
			t := clock()
			observe(p, now)
			tr.deliver.add(clock() - t)
		}
	}

	var busyLocal0, busyGlobal0 int64
	var marked0, notified0, shed0, throttled0 uint64
	var dropped0, retried0, unroutable0 uint64
	loopStart := clock()
	end := warmup + measure
	for cyc := net.Now(); cyc < end; cyc = net.Now() {
		if cyc == warmup {
			_, busyLocal0, busyGlobal0 = net.LinkBusy()
			marked0, notified0, shed0 = net.NumMarked, net.NumNotified, net.NumShed
			throttled0 = inj.Throttled()
			dropped0, retried0, unroutable0 = net.NumDropped, inj.Retried(), net.NumUnroutable
		}
		bound := end
		if cyc < warmup {
			bound = warmup
		}
		if tr == nil {
			// sim.elideStep, then the canonical cycle.
			if j, ok := net.ElideHorizon(bound); ok {
				if a := inj.NextArrival(j - 1); a < j {
					j = a
				}
				if j > cyc {
					net.ElideTo(j)
					continue
				}
			}
			inj.Cycle()
			net.Step()
			continue
		}
		t0 := clock()
		j, ok := net.ElideHorizon(bound)
		t1 := clock()
		tr.horizonCalls++
		tr.horizonBusy += time.Duration(t1 - t0)
		if ok {
			a := inj.NextArrival(j - 1)
			t2 := clock()
			tr.nextArrivalCalls++
			tr.nextArrivalBusy += time.Duration(t2 - t1)
			if a < j {
				j = a
			}
			if j > cyc {
				net.ElideTo(j)
				tr.jumps++
				tr.elided += j - cyc
				tr.inflightCyc += float64(net.InFlight) * float64(j-cyc)
				continue
			}
			t1 = t2
		}
		inj.Cycle()
		t2 := clock()
		net.Step()
		t3 := clock()
		tr.cycleCalls++
		tr.cycleBusy += time.Duration(t2 - t1)
		tr.stepCalls++
		tr.stepBusy += time.Duration(t3 - t2)
		tr.stepNs = append(tr.stepNs, int32(min(t3-t2, 1<<31-1)))
		tr.inflightCyc += float64(net.InFlight)
	}
	loopEnd := clock()

	_, busyLocal1, busyGlobal1 := net.LinkBusy()
	_, nLocal, nGlobal := net.LinkCounts()
	// steadySeed's result followed by reduceSteady over the one seed.
	res := cbar.SteadyResult{
		Algo:           c.Algo.String(),
		Workload:       w.pattern.Name(),
		Load:           pt.load,
		Accepted:       float64(phits) / (float64(measure) * float64(net.Topo.Nodes)),
		Delivered:      counted,
		AvgHops:        hops.Mean(),
		UtilLocal:      float64(busyLocal1-busyLocal0) / (float64(measure) * float64(nLocal)),
		UtilGlobal:     float64(busyGlobal1-busyGlobal0) / (float64(measure) * float64(nGlobal)),
		Seeds:          1,
		MeasuredCycles: measure,
		WarmupCycles:   warmup,
		Marked:         net.NumMarked - marked0,
		Notified:       net.NumNotified - notified0,
		Throttled:      inj.Throttled() - throttled0,
		Shed:           net.NumShed - shed0,
		Dropped:        net.NumDropped - dropped0,
		Retried:        inj.Retried() - retried0,
		Unroutable:     net.NumUnroutable - unroutable0,
	}
	if counted > 0 {
		res.MisroutedGlobal = float64(misG) / float64(counted)
		res.MisroutedLocal = float64(misL) / float64(counted)
	}
	r0 := clock()
	res.AvgLatency = hist.Mean()
	res.P50 = hist.Percentile(0.50)
	res.P99 = hist.Percentile(0.99)
	res.OverflowFrac = hist.OverflowFrac()
	done := clock()

	if tr != nil {
		tr.loop += time.Duration(loopEnd - loopStart)
		tr.reduceBusy += time.Duration(done - r0)
		for i := range ta.shards {
			tr.route.merge(ta.shards[i].route)
			tr.hooks.merge(ta.shards[i].hooks)
			tr.grants += ta.shards[i].grants
		}
		tr.beginBusy += time.Duration(ta.beginBusy)
		tr.algHorizonCalls += ta.horizonCalls
		tr.misG, tr.misL, tr.counts = tr.misG+misG, tr.misL+misL, tr.counts+counted
		tr.generated, tr.blocked, tr.shed = tr.generated+net.NumGenerated, tr.blocked+net.NumBlocked, tr.shed+net.NumShed
		tr.throttled, tr.retried = tr.throttled+inj.Throttled(), tr.retried+inj.Retried()
		tr.delivered, tr.dropped, tr.unroutable = tr.delivered+net.NumDelivered, tr.dropped+net.NumDropped, tr.unroutable+net.NumUnroutable
		tr.marked, tr.notified = tr.marked+net.NumMarked, tr.notified+net.NumNotified
		tr.utilLocal, tr.utilGlobal = tr.utilLocal+res.UtilLocal, tr.utilGlobal+res.UtilGlobal
	}

	// Correctness gate, outside every span: fabric invariants and packet
	// conservation at the end of the point.
	if err := net.CheckInvariants(); err != nil {
		return res, 0, fmt.Errorf("invariants after %v load %.4f: %w", pt.alg, pt.load, err)
	}
	if got := net.NumDelivered + net.NumDropped + net.NumUnroutable + uint64(net.InFlight); got != net.NumGenerated {
		return res, 0, fmt.Errorf("conservation after %v load %.4f: generated %d != delivered %d + dropped %d + unroutable %d + in-flight %d",
			pt.alg, pt.load, net.NumGenerated, net.NumDelivered, net.NumDropped, net.NumUnroutable, net.InFlight)
	}
	return res, time.Duration(done - start), nil
}

// percentileNs returns the q-quantile of per-call durations, sorting
// them in place.
func percentileNs(ns []int32, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	return float64(ns[int(q*float64(len(ns)-1))])
}

// setupSample is one timed construction of the workload's largest
// configuration.
type setupSample struct {
	spans     setupSpans
	heapBytes uint64 // live heap the construction retains (first sample only)
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// measureSetup constructs the workload's largest configuration (setupAlg
// at the highest load) n times and returns every sample.
func (w *workload) measureSetup(in inputs, n int) ([]setupSample, error) {
	c, err := w.simConfig(w.setupAlg, in, w.workers)
	if err != nil {
		return nil, err
	}
	load := in.loads[len(in.loads)-1]
	samples := make([]setupSample, 0, n)
	for i := 0; i < n; i++ {
		heap0 := liveHeap()
		t := clock()
		if _, err := topology.New(c.Router.Topo); err != nil {
			return nil, err
		}
		topo := time.Duration(clock() - t)
		net, inj, _, sp, err := w.construct(c, load, false)
		if err != nil {
			return nil, err
		}
		sp.topologyNew = topo
		s := setupSample{spans: sp}
		if i == 0 {
			s.heapBytes = liveHeap() - heap0
		}
		runtime.KeepAlive(net)
		runtime.KeepAlive(inj)
		samples = append(samples, s)
	}
	return samples, nil
}
