package sim

import (
	"context"
	"fmt"

	"cbar/internal/rng"
	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/traffic"
)

// Step-benchmark harness shared by the in-tree benchmarks
// (perf_bench_test.go) and cmd/bench, so the tracked BENCH_step.json
// record and `go test -bench` always measure the same operating points.

// StepBenchWarmup is the number of cycles a step benchmark runs before
// measurement so the network is in steady state (populated freelist,
// settled active sets) rather than cold.
const StepBenchWarmup = 500

// ElideIdleSpan and ElideIdleLoad are the operating point of the
// ElideIdle benchmarks (in-tree and cmd/bench): one op advances
// ElideIdleSpan cycles of a network offered ElideIdleLoad through
// Advance, so most of the span is elided and ns/op divided by the span
// is the effective per-cycle cost of the O(events) idle stepper. The
// load is deep idle — a few arrivals per span — rather than zero, so
// the jump/step composition (not just one long jump) is what's timed.
const (
	ElideIdleSpan = 10000
	ElideIdleLoad = 1e-5
)

// ElideIdleWarm deterministically warms every lazily-grown pool an
// ElideIdle measurement span can touch: one packet through every NIC
// (first-touch queue backing arrays, the packet freelist), advanced to
// delivery. At deep idle the statistical StepBenchWarmup leaves most
// sources untouched, so without this the first-touch growth trickles
// through the measured spans and allocs/op decays with b.N — a flaky
// regression gate.
func ElideIdleWarm(net *router.Network, inj *traffic.Injector) error {
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

// StepBenchSpec is one step-benchmark operating point. The zero values
// are the common case: uniform traffic, sequential stepping, the
// production fabric loop and algorithm state, no faults.
type StepBenchSpec struct {
	Scale    Scale
	Algo     routing.Algo
	Workload Workload
	Load     float64
	// Workers is the shard worker count (0 or 1: sequential), so the
	// suite can pin the parallel stepper's cycles/sec beside the
	// sequential stepper at the same operating points (the two are
	// cycle-for-cycle identical, so every other knob is comparable).
	Workers int
	// FullScan selects the every-component fabric loop, RefScan the
	// full-recompute reference algorithm state (polled PB flags,
	// combine-every-group ECtN).
	FullScan, RefScan bool
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

// NewStepBench builds the spec's network and injector through the same
// point constructor the measurements use and warms it into steady
// state through the driver.
func NewStepBench(sp StepBenchSpec) (*router.Network, *traffic.Injector, error) {
	c := NewConfig(sp.Scale.Params(), sp.Algo)
	c.Opts.ReferenceScan = sp.RefScan
	c.Router.Workers = sp.Workers
	if sp.QuiescentFaults {
		c.Router.Faults = router.FaultConfig{Events: []router.FaultEvent{
			{Kind: router.LinkDown, Router: 0, Port: int16(sp.Scale.Params().P), Cycle: 1 << 40},
		}}
	}
	p, err := newPoint(c, sp.Workload, sp.Load, 1, 2)
	if err != nil {
		return nil, nil, err
	}
	p.net.FullScan = sp.FullScan
	// Background never cancels, so advance cannot fail here.
	ctx := context.Background()
	_ = p.advance(ctx, StepBenchWarmup)
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
