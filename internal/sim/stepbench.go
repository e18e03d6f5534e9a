package sim

import (
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
// (first-touch queue backing arrays, the packet freelist), stepped to
// delivery. At deep idle the statistical StepBenchWarmup leaves most
// sources untouched, so without this the first-touch growth trickles
// through the measured spans and allocs/op decays with b.N — a flaky
// regression gate.
func ElideIdleWarm(net *router.Network, inj *traffic.Injector) error {
	nodes := net.Topo.Nodes
	for src := 0; src < nodes; src++ {
		net.Inject(src, (src+nodes/2)%nodes)
	}
	for i := 0; i < 1<<20 && net.InFlight > 0; i++ {
		inj.Cycle()
		net.Step()
	}
	if net.InFlight > 0 {
		return fmt.Errorf("sim: elide warm burst did not drain")
	}
	return nil
}

// NewStepBench builds a network and injector at the given scale,
// algorithm and uniform offered load, applies the step modes — fullScan
// selects the every-component fabric loop, refScan the full-recompute
// reference algorithm state (polled PB flags, combine-every-group ECtN)
// — and warms the network into steady state.
func NewStepBench(s Scale, algo routing.Algo, load float64, fullScan, refScan bool) (*router.Network, *traffic.Injector, error) {
	return NewStepBenchWorkload(s, algo, UN(), load, fullScan, refScan)
}

// NewStepBenchWorkload is NewStepBench for an arbitrary workload
// (pattern and arrival process), so the benchmark suite can pin the
// cost of the stateful calendar injector beside the Bernoulli fast
// path at the same operating points.
func NewStepBenchWorkload(s Scale, algo routing.Algo, w Workload, load float64, fullScan, refScan bool) (*router.Network, *traffic.Injector, error) {
	return NewStepBenchWorkers(s, algo, w, load, fullScan, refScan, 1)
}

// NewStepBenchWorkers is NewStepBenchWorkload with an explicit shard
// worker count, so the benchmark suite can pin the parallel stepper's
// cycles/sec beside the sequential stepper at the same operating points
// (the two are cycle-for-cycle identical, so every other knob is
// comparable).
func NewStepBenchWorkers(s Scale, algo routing.Algo, w Workload, load float64, fullScan, refScan bool, workers int) (*router.Network, *traffic.Injector, error) {
	c := NewConfig(s.Params(), algo)
	c.Opts.ReferenceScan = refScan
	c.Router.Workers = workers
	net, err := BuildNetwork(c, 1)
	if err != nil {
		return nil, nil, err
	}
	net.FullScan = fullScan
	pat, err := w.Pattern(net.Topo)
	if err != nil {
		return nil, nil, err
	}
	inj, err := w.injector(net, traffic.Constant(pat), load, 2)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < StepBenchWarmup; i++ {
		inj.Cycle()
		net.Step()
	}
	return net, inj, nil
}

// NewStepBenchSaturated is NewStepBenchWorkload for an operating point
// past saturation. There the NIC queues fill at the rate offered load
// exceeds accepted load, and until they are full the packet population
// grows and Step allocates for it (freelist misses, queue growth) —
// thousands of cycles beyond StepBenchWarmup. The benchmark measures the
// stalled steady state, so the network is stepped in StepBenchWarmup
// windows until a window grows the in-flight population by less than
// 0.1 %; from there a cycle allocates nothing, which cmd/bench gates.
func NewStepBenchSaturated(s Scale, algo routing.Algo, w Workload, load float64) (*router.Network, *traffic.Injector, error) {
	net, inj, err := NewStepBenchWorkload(s, algo, w, load, false, false)
	if err != nil {
		return nil, nil, err
	}
	const maxWindows = 100
	for win := 0; win < maxWindows; win++ {
		before := net.InFlight
		for i := 0; i < StepBenchWarmup; i++ {
			inj.Cycle()
			net.Step()
		}
		if (net.InFlight-before)*1000 < before {
			return net, inj, nil
		}
	}
	return nil, nil, fmt.Errorf("sim: %v at load %g: in-flight population still growing after %d cycles; not a saturated operating point",
		algo, load, (maxWindows+1)*StepBenchWarmup)
}

// NewStepBenchFaults builds a step benchmark with a quiescent fault
// plan: one LinkDown scheduled far past any benchmark horizon, so the
// fault engine is allocated and its per-cycle pending check runs, but
// no event ever fires. Pinned beside the plain idle entry, the delta is
// the fault layer's hot-path overhead — which must stay ~zero.
func NewStepBenchFaults(s Scale, algo routing.Algo, load float64) (*router.Network, *traffic.Injector, error) {
	c := NewConfig(s.Params(), algo)
	c.Router.Faults = router.FaultConfig{Events: []router.FaultEvent{
		{Kind: router.LinkDown, Router: 0, Port: int16(s.Params().P), Cycle: 1 << 40},
	}}
	net, err := BuildNetwork(c, 1)
	if err != nil {
		return nil, nil, err
	}
	pat, err := UN().Pattern(net.Topo)
	if err != nil {
		return nil, nil, err
	}
	inj, err := traffic.NewInjector(net, traffic.Constant(pat), load, 2)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < StepBenchWarmup; i++ {
		inj.Cycle()
		net.Step()
	}
	return net, inj, nil
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
