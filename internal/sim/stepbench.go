package sim

import (
	"context"
	"fmt"

	"cbar/internal/rng"
	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/traffic"
)

// The step-benchmark suite: one table of named operating points
// (StepBenchSuite) and the harness that builds and warms them. cmd/bench
// owns the timed loops and runs every row twice over — testing.Benchmark
// for the tracked BENCH_step.json record, b.Run for `go test -bench Step
// ./cmd/bench` — so the two cannot drift.

// StepBenchWarmup is the number of cycles a step benchmark runs before
// measurement so the network is in steady state (populated freelist,
// settled active sets) rather than cold.
const StepBenchWarmup = 500

// ElideIdleSpan and ElideIdleLoad are the operating point of the
// ElideIdle rows: one op advances
// ElideIdleSpan cycles of a network offered ElideIdleLoad through
// Advance, so most of the span is elided and ns/op divided by the span
// is the effective per-cycle cost of the O(events) idle stepper. The
// load is deep idle — a few arrivals per span — rather than zero, so
// the jump/step composition (not just one long jump) is what's timed.
const (
	ElideIdleSpan = 10000
	ElideIdleLoad = 1e-5
)

// elideIdleWarm deterministically warms every lazily-grown pool an
// ElideIdle measurement span can touch: one packet through every NIC
// (first-touch queue backing arrays, the packet freelist), advanced to
// delivery. At deep idle the statistical StepBenchWarmup leaves most
// sources untouched, so without this the first-touch growth trickles
// through the measured spans and allocs/op decays with b.N — a flaky
// regression gate.
func elideIdleWarm(net *router.Network, inj *traffic.Injector) error {
	nodes := net.Topo.Nodes
	for src := 0; src < nodes; src++ {
		net.Inject(src, (src+nodes/2)%nodes)
	}
	for deadline := net.Now() + 1<<20; net.InFlight > 0 && net.Now() < deadline; {
		Advance(net, inj, 1)
	}
	if net.InFlight > 0 {
		return fmt.Errorf("sim: elide warm burst did not drain")
	}
	return nil
}

// StepBenchOp is what one benchmark op of a suite row does.
type StepBenchOp uint8

const (
	// OpCycle is one injected cycle, stepped — never elided: the row
	// measures Step itself.
	OpCycle StepBenchOp = iota
	// OpElideSpan advances ElideIdleSpan cycles through Advance, which
	// jumps the clock between events: ns/op divided by the span compares
	// against the per-cycle Idle rows.
	OpElideSpan
	// OpBurstDrain is one BurstDrainStep episode on an unwarmed network.
	OpBurstDrain
	// OpSweep is one SweepBenchStep: a whole load sweep, set-up included,
	// through the grid pool. It times the pool, so a report records it
	// only at GOMAXPROCS >= 2.
	OpSweep
)

// StepBenchSpec is one step-benchmark operating point. The zero values
// are the common case: one stepped cycle per op, uniform traffic,
// sequential stepping, no faults.
type StepBenchSpec struct {
	Op       StepBenchOp
	Scale    Scale
	Algo     routing.Algo
	Workload Workload
	Load     float64
	// Workers is the shard worker count (0 or 1: sequential), so the
	// suite can pin the parallel stepper's cycles/sec beside the
	// sequential stepper at the same operating points (the two are
	// cycle-for-cycle identical, so every other knob is comparable).
	Workers int
	// QuiescentFaults arms a fault plan that never fires: one LinkDown
	// scheduled far past any benchmark horizon, so the fault engine is
	// allocated and its per-cycle pending check runs. Pinned beside the
	// plain idle entry, the delta is the fault layer's hot-path
	// overhead — which must stay ~zero.
	QuiescentFaults bool
	// Saturated marks an operating point past saturation. There the NIC
	// queues fill at the rate offered load exceeds accepted load, and
	// until they are full the packet population grows and Step allocates
	// for it (freelist misses, queue growth) — thousands of cycles beyond
	// StepBenchWarmup. The benchmark measures the stalled steady state,
	// so the network is advanced in StepBenchWarmup windows until a
	// window grows the in-flight population by less than 0.1 %; from
	// there a cycle allocates nothing, which cmd/bench gates.
	Saturated bool
}

// StepBenchRow is one named row of the suite.
type StepBenchRow struct {
	Name string
	Spec StepBenchSpec
}

// StepBenchSuite returns the step-benchmark suite, in BENCH_step.json
// order.
func StepBenchSuite() []StepBenchRow {
	return []StepBenchRow{
		{Name: "StepTinyBase", Spec: StepBenchSpec{Scale: Tiny, Algo: routing.Base, Load: 0.3}},
		{Name: "StepSmallBase", Spec: StepBenchSpec{Scale: Small, Algo: routing.Base, Load: 0.3}},
		// UN 0.5 is the loaded point with the most events in flight below
		// saturation: the row the event calendar's working set shows in.
		{Name: "StepSmallBase05", Spec: StepBenchSpec{Scale: Small, Algo: routing.Base, Load: 0.5}},
		{Name: "StepSmallMin", Spec: StepBenchSpec{Scale: Small, Algo: routing.Min, Load: 0.3}},
		{Name: "StepSmallECtN", Spec: StepBenchSpec{Scale: Small, Algo: routing.ECtN, Load: 0.3}},
		{Name: "StepSmallPB", Spec: StepBenchSpec{Scale: Small, Algo: routing.PB, Load: 0.3}},
		// The past-saturation rows track blocked-router parking: MIN under
		// ADV+1 pins at 1/(a*p) with every NIC full and nearly every head
		// blocked on credits (the regime where a revisit per cycle cost 200+
		// Route calls per grant); OLM at 0.4 misroutes and re-samples its
		// blocked heads, so fewer of its routers park; ECtN is the
		// contention-based one, its routers kept visited by the counters'
		// draws — the row a route/allocate visit's own cost shows in.
		{Name: "StepSmallMinAdvSat", Spec: StepBenchSpec{Scale: Small, Algo: routing.Min, Workload: ADV(1), Load: 0.4, Saturated: true}},
		{Name: "StepSmallOLMAdv04", Spec: StepBenchSpec{Scale: Small, Algo: routing.OLM, Workload: ADV(1), Load: 0.4, Saturated: true}},
		{Name: "StepSmallECtNAdvSat", Spec: StepBenchSpec{Scale: Small, Algo: routing.ECtN, Workload: ADV(1), Load: 0.4, Saturated: true}},
		{Name: "StepSmallIdle", Spec: StepBenchSpec{Scale: Small, Algo: routing.Base, Load: 0.01}},
		// Beside StepSmallIdle, the delta is the fault engine's hot-path cost,
		// which must stay ~zero: it only spends cycles when events fire.
		{Name: "StepSmallFaultsIdle", Spec: StepBenchSpec{Scale: Small, Algo: routing.Base, Load: 0.01, QuiescentFaults: true}},
		{Name: "StepSmallElideIdle", Spec: StepBenchSpec{Scale: Small, Algo: routing.Base, Load: ElideIdleLoad, Op: OpElideSpan}},
		{Name: "StepPaperElideIdle", Spec: StepBenchSpec{Scale: Paper, Algo: routing.Base, Load: ElideIdleLoad, Op: OpElideSpan}},
		// An idle PB or ECtN cycle must cost about what an idle Base cycle
		// does — no O(network) BeginCycle term: PB keeps no per-cycle state,
		// and ECtN combines only the groups whose partials moved.
		{Name: "StepSmallPBIdle", Spec: StepBenchSpec{Scale: Small, Algo: routing.PB, Load: 0.01}},
		{Name: "StepSmallECtNIdle", Spec: StepBenchSpec{Scale: Small, Algo: routing.ECtN, Load: 0.01}},
		// The bursty/hotspot idle rows track the stateful calendar injector
		// beside the Bernoulli skip-sampler: same scale, same load, different
		// arrival process — the calendar only touches nodes that inject this
		// cycle, so the delta is the cost of per-node source state, with no
		// O(nodes) term at Paper scale (16512 mostly-silent sources).
		{Name: "StepSmallBurstyIdle", Spec: StepBenchSpec{Scale: Small, Algo: routing.Base, Workload: UN().WithBurst(50, 150, 0), Load: 0.01}},
		{Name: "StepSmallHotspotIdle", Spec: StepBenchSpec{Scale: Small, Algo: routing.Base, Workload: HotspotUN(0.2, 8), Load: 0.01}},
		// The regime the active-set scheduler exists for: the full Table I
		// system (2064 routers, 16512 nodes) at 1% load, where nearly every
		// component is idle on any given cycle.
		{Name: "StepPaperIdle", Spec: StepBenchSpec{Scale: Paper, Algo: routing.Base, Load: 0.01}},
		{Name: "StepPaperBurstyIdle", Spec: StepBenchSpec{Scale: Paper, Algo: routing.Base, Workload: UN().WithBurst(50, 150, 0), Load: 0.01}},
		{Name: "StepPaperPBIdle", Spec: StepBenchSpec{Scale: Paper, Algo: routing.PB, Load: 0.01}},
		{Name: "StepPaperECtNIdle", Spec: StepBenchSpec{Scale: Paper, Algo: routing.ECtN, Load: 0.01}},
		// The workers rows track the shard-parallel stepper beside the
		// sequential one at a loaded operating point (30% UN, the
		// parallel-stepper acceptance regime); the cycles are bit-identical,
		// so the cycles/sec ratio is pure parallel speedup minus barrier cost.
		// Meaningful on a multi-core host.
		{Name: "StepSmallWorkers1", Spec: StepBenchSpec{Scale: Small, Algo: routing.Base, Load: 0.3, Workers: 1}},
		{Name: "StepSmallWorkers4", Spec: StepBenchSpec{Scale: Small, Algo: routing.Base, Load: 0.3, Workers: 4}},
		{Name: "StepPaperWorkers1", Spec: StepBenchSpec{Scale: Paper, Algo: routing.Base, Load: 0.3, Workers: 1}},
		{Name: "StepPaperWorkers4", Spec: StepBenchSpec{Scale: Paper, Algo: routing.Base, Load: 0.3, Workers: 4}},
		// A synchronized burst, then stepping until the network fully drains:
		// most of those cycles have only a dwindling tail of active
		// components, which a full scan pays topology cost for.
		{Name: "StepSmallBurstDrain", Spec: StepBenchSpec{Scale: Small, Algo: routing.Base, Op: OpBurstDrain}},
		// The grid pool's row: three UN loads whose costs differ fivefold,
		// each run on one worker, so on two cores the op's time is set by
		// which point the pool leaves for last.
		{Name: "SweepSmallUN", Spec: StepBenchSpec{Scale: Small, Algo: routing.Base, Workers: 1, Op: OpSweep}},
	}
}

// NewStepBench builds the spec's network and injector through the same
// point constructor the measurements use and warms them for its op
// through the driver: into steady state for the stepped rows, every
// lazily-grown pool touched on top for the elision rows. A burst-drain
// row gets a cold network and no injector: its episodes bring their own
// traffic. (A sweep row has nothing to build: SweepBenchStep is its op.)
func NewStepBench(sp StepBenchSpec) (*router.Network, *traffic.Injector, error) {
	c := NewConfig(sp.Scale.Params(), sp.Algo)
	if sp.Op == OpBurstDrain {
		net, err := BuildNetwork(c, 1)
		return net, nil, err
	}
	c.Router.Workers = sp.Workers
	if sp.QuiescentFaults {
		c.Router.Faults = router.FaultConfig{Events: []router.FaultEvent{
			{Kind: router.LinkDown, Router: 0, Port: int16(sp.Scale.Params().P), Cycle: 1 << 40},
		}}
	}
	p, err := newPoint(c, sp.Workload, sp.Load, 1, 2, 0)
	if err != nil {
		return nil, nil, err
	}
	// Background never cancels, so advance cannot fail here.
	ctx := context.Background()
	_ = p.advance(ctx, StepBenchWarmup)
	if sp.Op == OpElideSpan {
		return p.net, p.inj, elideIdleWarm(p.net, p.inj)
	}
	if !sp.Saturated {
		return p.net, p.inj, nil
	}
	const maxWindows = 100
	for win := 0; win < maxWindows; win++ {
		before := p.net.InFlight
		_ = p.advance(ctx, p.net.Now()+StepBenchWarmup)
		if (p.net.InFlight-before)*1000 < before {
			return p.net, p.inj, nil
		}
	}
	return nil, nil, fmt.Errorf("sim: %v at load %g: in-flight population still growing after %d cycles; not a saturated operating point",
		sp.Algo, sp.Load, (maxWindows+1)*StepBenchWarmup)
}

// The grid of an OpSweep row: below saturation, so accepted load tracks
// the offered one and a point's cost its load.
var sweepBenchLoads = []float64{0.1, 0.3, 0.5}

const sweepBenchWarmup, sweepBenchMeasure = 2000, 1000

// SweepBenchStep runs one op of an OpSweep row — the spec's mechanism
// and workload over sweepBenchLoads, one seed a point, through
// SweepSteadyBudget — and returns the simulated cycles it covered.
func SweepBenchStep(sp StepBenchSpec) (cycles int64, err error) {
	c := NewConfig(sp.Scale.Params(), sp.Algo)
	c.Router.Workers = sp.Workers
	_, err = SweepSteadyBudget(c, sp.Workload, sweepBenchLoads,
		Budget{Warmup: sweepBenchWarmup, Measure: sweepBenchMeasure, Seeds: 1})
	return int64(len(sweepBenchLoads)) * (sweepBenchWarmup + sweepBenchMeasure), err
}

// BurstDrainStep runs one episode of the burst-then-drain benchmark: a
// 256-packet random burst into the NIC queues, then stepping until the
// network fully drains.
func BurstDrainStep(net *router.Network, r *rng.PCG) error {
	const burst = 256
	nodes := net.Topo.Nodes
	for k := 0; k < burst; k++ {
		src := r.Intn(nodes)
		dst := r.Intn(nodes)
		if dst == src {
			dst = (dst + 1) % nodes
		}
		net.Inject(src, dst)
	}
	if !net.Drain(1 << 20) {
		return fmt.Errorf("sim: burst did not drain")
	}
	return nil
}
