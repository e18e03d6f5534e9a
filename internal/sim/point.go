package sim

import (
	"context"

	"cbar/internal/router"
	"cbar/internal/stats"
	"cbar/internal/traffic"
)

// Every experiment of the paper is one act: build a (fabric, pattern,
// injector) system, advance it cycle by cycle to a boundary, observe
// deliveries inside a window. This file is that act, written once: the
// point constructor, the driver (advance) and the measurement window.
// The fixed and adaptive steady-state modes, the transient tracer, the
// §VI-A sampler and the step-benchmark harness differ only in the
// boundaries they advance to and in what they observe between them.

// point is one simulated system: a network and the injector feeding it,
// with the labels its results carry.
type point struct {
	net  *router.Network
	inj  *traffic.Injector
	algo string
	work string
	load float64
	// pollAt is the next cycle at which advance polls its context.
	pollAt int64
}

// phase switches a point's destination pattern to w's at cycle from.
type phase struct {
	from int64
	w    Workload
}

// newPoint builds the system for one run: the config normalized and
// built with `seed`, w's destination pattern from cycle 0 (then each
// later phase's, in order), and w's arrival process seeded with
// injSeed. Only the destination pattern switches between phases: the
// arrival process is w's for the whole run. end is the cycle the run
// stops at, or 0 when the caller does not know it: arrivals drawn ahead
// stop there (traffic.Injector.DrawAhead).
func newPoint(c Config, w Workload, load float64, seed, injSeed uint64, end int64, then ...phase) (*point, error) {
	net, err := BuildNetwork(c, seed)
	if err != nil {
		return nil, err
	}
	phases := make([]traffic.Phase, 0, 1+len(then))
	for _, ph := range append([]phase{{0, w}}, then...) {
		pat, err := ph.w.Pattern(net.Topo)
		if err != nil {
			return nil, err
		}
		phases = append(phases, traffic.Phase{FromCycle: ph.from, Pattern: pat})
	}
	sched, err := traffic.NewSchedule(phases...)
	if err != nil {
		return nil, err
	}
	// The bit-identical homogeneous fast path when the source spec is
	// zero, the stateful calendar path otherwise.
	var inj *traffic.Injector
	if w.Source.homogeneous() {
		inj, err = traffic.NewInjector(net, sched, load, injSeed)
	} else {
		spec := traffic.SourceSpec{OnMean: w.Source.OnMean, OffMean: w.Source.OffMean, PeakLoad: w.Source.PeakLoad}
		if w.Source.Bursty {
			spec.Kind = traffic.OnOffArrivals
		}
		if w.Source.skewed() {
			if spec.Weights, err = skewWeights(w.Source.SkewFrac, w.Source.SkewShare, net.Topo.Nodes); err != nil {
				return nil, err
			}
		}
		inj, err = traffic.NewSourceInjector(net, sched, load, injSeed, spec)
	}
	if err != nil {
		return nil, err
	}
	inj.DrawAhead(c.cores, end)
	return &point{net: net, inj: inj, algo: c.Algo.String(), work: w.Name(), load: load}, nil
}

// ctxPollStride is how many simulated cycles advance lets pass between
// polls of its context: one measurement bucket, so a cancelled sweep
// stops mid-run at bucket granularity.
const ctxPollStride = adaptiveBucket

// advance drives the point to the absolute cycle `until`: the canonical
// inj.Cycle(); net.Step() loop with quiet spans elided. It is the only
// cycle loop in the package, so it is the one place a context is
// polled, a jump is capped or an observer sees the clock move. Jumps
// are capped at `until` alone — the caller's own bookkeeping boundary
// (warmup end, bucket end, run end) — never at the poll stride, so an
// idle run keeps its full jump length; a caller that must observe every
// cycle (the §VI-A sampler) passes until = Now()+1. A nil ctx never
// cancels.
func (p *point) advance(ctx context.Context, until int64) error {
	for now := p.net.Now(); now < until; now = p.net.Now() {
		if now >= p.pollAt {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			p.pollAt = now + ctxPollStride
		}
		if elideStep(p.net, p.inj, until) {
			continue
		}
		p.inj.Cycle()
		p.net.Step()
	}
	return nil
}

// ctxErr reports a cancelled context (nil contexts never cancel).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// counters is the snapshot of every monotonic fabric and injector
// counter a window reports as a delta.
type counters struct {
	busyLocal, busyGlobal       int64
	marked, notified, shed      uint64
	throttled, dropped, retried uint64
	unroutable                  uint64
}

func (p *point) counters() counters {
	_, busyLocal, busyGlobal := p.net.LinkBusy()
	return counters{
		busyLocal: busyLocal, busyGlobal: busyGlobal,
		marked: p.net.NumMarked, notified: p.net.NumNotified, shed: p.net.NumShed,
		throttled: p.inj.Throttled(), dropped: p.net.NumDropped, retried: p.inj.Retried(),
		unroutable: p.net.NumUnroutable,
	}
}

// latencyHistCap bounds the latency histogram; latencies beyond it still
// count toward the mean but saturate percentile reporting.
const latencyHistCap = 1 << 15

// window measures a point from the cycle it is opened at to the cycle
// it is closed at: a delivery accumulator plus the counter snapshot
// taken at open. Opening a window makes it the point's delivery
// observer, so opening a second one discards the first — how the
// adaptive engine drops its warmup at the MSER boundary.
type window struct {
	p     *point
	start int64
	base  counters
	hist  *stats.Histogram
	hops  stats.Welford
	phits uint64
	misG  uint64
	misL  uint64
	count uint64
	// The adaptive engine's buckets: the latency sum since the last lap,
	// and count and phits as of it.
	lapLat             float64
	lapCount, lapPhits uint64
	// last is the cycle of the latest delivery (the opening cycle before
	// the first), drained whether the fabric was empty right after it,
	// and stall the longest span so far with packets in flight and no
	// delivery (SteadyResult.StallCycles).
	last, stall int64
	drained     bool
}

// open starts a measurement window at the current cycle. Elided cycles
// deliver nothing and move no counter, so a window over a jumped span
// is bit-identical to one over the same span stepped.
func (p *point) open() *window {
	now := p.net.Now()
	w := &window{p: p, start: now, base: p.counters(), hist: stats.NewHistogram(latencyHistCap),
		last: now, drained: p.net.InFlight == 0}
	p.net.OnDeliver = w.deliver
	return w
}

func (w *window) deliver(pkt *router.Packet, now int64) {
	lat := now - pkt.GenTime
	w.hist.Add(lat)
	w.hops.Add(float64(pkt.TotalHops))
	w.phits += uint64(pkt.Size)
	if pkt.GlobalMisroute {
		w.misG++
	}
	if pkt.LocalMisroutes > 0 {
		w.misL++
	}
	w.count++
	w.lapLat += float64(lat)
	// The packet was in flight from its generation on, so nothing was
	// delivered with it in flight since the later of that and the last
	// delivery.
	if span := now - max(w.last, pkt.GenTime); span > w.stall {
		w.stall = span
	}
	w.last, w.drained = now, w.p.net.InFlight == 0
}

// lap returns the latency sum, packet count and phits delivered since
// the previous lap (or since open) and starts the next one.
func (w *window) lap() (latSum float64, count, phits uint64) {
	latSum, count, phits = w.lapLat, w.count-w.lapCount, w.phits-w.lapPhits
	w.lapLat, w.lapCount, w.lapPhits = 0, w.count, w.phits
	return latSum, count, phits
}

// close builds the window's one-seed result at the current cycle. The
// latency summary fields (AvgLatency, P50, P99, OverflowFrac) are left
// zero: reduceSteady computes them from w.hist, so multi-seed
// reductions merge histograms and take exact cross-seed percentiles
// instead of averaging per-seed ones.
func (w *window) close() SteadyResult {
	p := w.p
	end := p.counters()
	_, nLocal, nGlobal := p.net.LinkCounts()
	measure := p.net.Now() - w.start
	res := SteadyResult{
		Algo:           p.algo,
		Workload:       p.work,
		Load:           p.load,
		Accepted:       float64(w.phits) / (float64(measure) * float64(p.net.Topo.Nodes)),
		Delivered:      w.count,
		AvgHops:        w.hops.Mean(),
		UtilLocal:      float64(end.busyLocal-w.base.busyLocal) / (float64(measure) * float64(nLocal)),
		UtilGlobal:     float64(end.busyGlobal-w.base.busyGlobal) / (float64(measure) * float64(nGlobal)),
		Seeds:          1,
		MeasuredCycles: measure,
		WarmupCycles:   w.start,
		Marked:         end.marked - w.base.marked,
		Notified:       end.notified - w.base.notified,
		Throttled:      end.throttled - w.base.throttled,
		Shed:           end.shed - w.base.shed,
		Dropped:        end.dropped - w.base.dropped,
		Retried:        end.retried - w.base.retried,
		Unroutable:     end.unroutable - w.base.unroutable,
		StallCycles:    w.stall,
	}
	// A span still open at the close counts if packets have been in
	// flight since the last delivery: a fabric that emptied after it may
	// have idled before its next injection.
	if !w.drained && p.net.InFlight > 0 {
		res.StallCycles = max(res.StallCycles, p.net.Now()-w.last)
	}
	if w.count > 0 {
		res.MisroutedGlobal = float64(w.misG) / float64(w.count)
		res.MisroutedLocal = float64(w.misL) / float64(w.count)
	}
	return res
}
