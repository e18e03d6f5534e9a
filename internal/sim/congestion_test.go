package sim

import (
	"fmt"
	"math"
	"testing"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/traffic"
)

// congestionOn returns a resolved-on-Build congestion config with every
// knob left at its default.
func congestionOn() router.CongestionConfig {
	return router.CongestionConfig{Enabled: true}
}

// congestionRun is parallelRun's congestion-aware sibling: it drives one
// network with the layer enabled and returns the trace of deliveries and
// OnNotify calls, interleaved as they happened, plus the injector, so
// callers can compare the throttle counter too.
func congestionRun(t *testing.T, c Config, w Workload, load float64, cycles int64, workers int) ([]string, *traffic.Injector, *router.Network) {
	t.Helper()
	c.Router.Workers = workers
	c.Router.Congestion = congestionOn()
	net, inj := testPoint(t, c, w, load)
	var trace []string
	net.OnDeliver = func(p *router.Packet, now int64) {
		trace = append(trace, fmt.Sprintf("%d #%d %d->%d hops=%d marks=%d gen=%d",
			now, p.ID, p.Src, p.Dst, p.TotalHops, p.ECNMarks, p.GenTime))
	}
	throttle := net.OnNotify
	net.OnNotify = func(node, sev int, now int64) {
		trace = append(trace, fmt.Sprintf("%d notify %d sev=%d", now, node, sev))
		throttle(node, sev, now)
	}
	for cyc := int64(0); cyc < cycles; cyc++ {
		inj.Cycle()
		net.Step()
		if workers > 1 {
			if err := net.CheckInvariants(); err != nil {
				t.Fatalf("workers=%d cycle %d: %v", workers, cyc, err)
			}
		}
	}
	return trace, inj, net
}

// TestParallelCongestionEquivalence pins the congestion loop — marking,
// notification replay, AIMD throttling, NIC shedding — bit-for-bit
// across worker counts: the trace of deliveries (ECN marks included) and
// OnNotify calls, and every congestion counter, must be identical at
// workers ∈ {2, 3, 4} to the 1-worker run. This is the determinism
// property the notification replay order (delivery order, at the handle
// barrier of the due cycle) exists for.
func TestParallelCongestionEquivalence(t *testing.T) {
	cases := []struct {
		name string
		algo routing.Algo
		w    Workload
		load float64
	}{
		{"base-hotspot", routing.Base, HotspotUN(0.3, 8), 0.7},
		{"base-adv1", routing.Base, ADV(1), 0.5},
		{"min-hotspot", routing.Min, HotspotUN(0.3, 8), 0.7},
		{"ectn-bursty-hotspot", routing.ECtN, HotspotUN(0.2, 4).WithBurst(40, 120, 0.8), 0.4},
	}
	const cycles = 1200
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConfig(Tiny.Params(), tc.algo)
			refTrace, refInj, refNet := congestionRun(t, c, tc.w, tc.load, cycles, 1)
			if refNet.NumMarked == 0 || refNet.NumNotified == 0 || refInj.Throttled() == 0 {
				t.Fatalf("reference run exercised no congestion (marked=%d notified=%d throttled=%d); the case proves nothing",
					refNet.NumMarked, refNet.NumNotified, refInj.Throttled())
			}
			for _, workers := range []int{2, 3, 4} {
				trace, inj, net := congestionRun(t, c, tc.w, tc.load, cycles, workers)
				if net.NumMarked != refNet.NumMarked || net.NumNotified != refNet.NumNotified ||
					net.NumShed != refNet.NumShed || inj.Throttled() != refInj.Throttled() {
					t.Fatalf("workers=%d congestion counters diverged: marked %d/%d notified %d/%d shed %d/%d throttled %d/%d",
						workers, net.NumMarked, refNet.NumMarked, net.NumNotified, refNet.NumNotified,
						net.NumShed, refNet.NumShed, inj.Throttled(), refInj.Throttled())
				}
				if net.NumDelivered != refNet.NumDelivered || net.NumGenerated != refNet.NumGenerated {
					t.Fatalf("workers=%d delivery diverged: %d/%d delivered, %d/%d generated",
						workers, net.NumDelivered, refNet.NumDelivered, net.NumGenerated, refNet.NumGenerated)
				}
				if len(trace) != len(refTrace) {
					t.Fatalf("workers=%d trace length %d vs %d", workers, len(trace), len(refTrace))
				}
				for i := range trace {
					if trace[i] != refTrace[i] {
						t.Fatalf("workers=%d trace diverged at entry %d:\n  got  %s\n  want %s",
							workers, i, trace[i], refTrace[i])
					}
				}
			}
		})
	}
}

// TestCongestionOffIsInert pins the off-mode contract: a zero-valued
// CongestionConfig must leave the simulation bit-identical to a build
// that predates the layer — no marks, no notifications, no sheds, no
// throttle — so the golden CSVs stay byte-for-byte stable.
func TestCongestionOffIsInert(t *testing.T) {
	c := NewConfig(Tiny.Params(), routing.Base)
	net, err := BuildNetwork(c, 2025)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := HotspotUN(0.3, 8).Pattern(net.Topo)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(net, traffic.Constant(pat), 0.7, 31)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < 800; cyc++ {
		inj.Cycle()
		net.Step()
	}
	if net.NumMarked != 0 || net.NumNotified != 0 || net.NumShed != 0 || inj.Throttled() != 0 {
		t.Fatalf("congestion-off run produced activity: marked=%d notified=%d shed=%d throttled=%d",
			net.NumMarked, net.NumNotified, net.NumShed, inj.Throttled())
	}
	if net.OnNotify != nil {
		t.Fatal("congestion-off injector installed an OnNotify callback")
	}
	if got := inj.RatePct(0); got != 100 {
		t.Fatalf("congestion-off rate %d%%, want 100%%", got)
	}
}

// TestCongestionConvergenceHotspot is the acceptance scenario: on the
// saturated hotspot point (30% of traffic at 8 hot nodes, offered load
// 0.7) the AIMD loop must sustain at least the uncontrolled accepted
// throughput past the knee — shedding and throttling shift loss to the
// sources instead of letting the fabric's queues absorb it.
func TestCongestionConvergenceHotspot(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed steady-state runs in -short mode")
	}
	b := Budget{Warmup: 1200, Measure: 1200, Seeds: 2}
	c := NewConfig(Tiny.Params(), routing.Base)
	w := HotspotUN(0.3, 8)
	off, err := RunSteadyBudget(c, w, 0.7, b)
	if err != nil {
		t.Fatal(err)
	}
	bc := b
	bc.Congestion = congestionOn()
	c.Router.Congestion = bc.Congestion
	on, err := RunSteadyBudget(c, w, 0.7, bc)
	if err != nil {
		t.Fatal(err)
	}
	if off.Marked != 0 || off.Shed != 0 {
		t.Fatalf("congestion-off result reports activity: marked=%d shed=%d", off.Marked, off.Shed)
	}
	if on.Marked == 0 || on.Notified == 0 || on.Throttled == 0 {
		t.Fatalf("congestion-on run exercised no loop: marked=%d notified=%d throttled=%d",
			on.Marked, on.Notified, on.Throttled)
	}
	if on.Accepted < off.Accepted {
		t.Fatalf("congestion-on accepted %.4f below uncontrolled %.4f past the knee",
			on.Accepted, off.Accepted)
	}
	if on.AvgLatency > off.AvgLatency {
		t.Fatalf("congestion-on latency %.2f above uncontrolled %.2f: throttling should shorten queues",
			on.AvgLatency, off.AvgLatency)
	}
}

// TestCongestionShedBoundsBacklog pins graceful degradation: with the
// layer enabled, no NIC backlog may ever exceed the shed cap — injection
// sheds (counted) instead of queueing into the deep NIC buffer.
func TestCongestionShedBoundsBacklog(t *testing.T) {
	c := NewConfig(Tiny.Params(), routing.Base)
	c.Router.Congestion = congestionOn()
	net, err := BuildNetwork(c, 2025)
	if err != nil {
		t.Fatal(err)
	}
	cap := c.Router.NICQueuePackets / 4 // the shed cap (router.TestCongestionDerivedFromFabric)
	pat, err := HotspotUN(0.3, 8).Pattern(net.Topo)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(net, traffic.Constant(pat), 0.9, 31)
	if err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < 1500; cyc++ {
		inj.Cycle()
		net.Step()
		for node := 0; node < net.Topo.Nodes; node++ {
			if got := net.NICBacklog(node); got > cap {
				t.Fatalf("cycle %d: node %d backlog %d exceeds shed cap %d", cyc, node, got, cap)
			}
		}
	}
	if net.NumShed == 0 {
		t.Fatal("overloaded run shed nothing; the bound proves nothing")
	}
}

// TestSatDetectorBurstWindow pins the bursty widening of the saturation
// detector's trailing window: satBurstPeriods ON+OFF source periods, in
// buckets, never below the memoryless default.
func TestSatDetectorBurstWindow(t *testing.T) {
	c := NewConfig(Tiny.Params(), routing.Base)
	net, err := BuildNetwork(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := newSatDetector(net, SourceSpec{}).window; got != satWindow {
		t.Fatalf("memoryless window %d, want %d", got, satWindow)
	}
	// Short bursts fit inside the default window: no widening.
	short := SourceSpec{Bursty: true, OnMean: 40, OffMean: 120}
	if got := newSatDetector(net, short).window; got != satWindow {
		t.Fatalf("short-period window %d, want default %d", got, satWindow)
	}
	// Long periods widen it to satBurstPeriods periods.
	long := SourceSpec{Bursty: true, OnMean: 400, OffMean: 600}
	want := int(math.Ceil(satBurstPeriods * (long.OnMean + long.OffMean) / adaptiveBucket))
	if got := newSatDetector(net, long).window; got != want {
		t.Fatalf("long-period window %d, want %d", got, want)
	}
	if want <= satWindow {
		t.Fatalf("test spec does not exceed the default window (%d <= %d)", want, satWindow)
	}
}
