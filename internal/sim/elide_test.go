package sim

import (
	"fmt"
	"reflect"
	"testing"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/traffic"
)

// elideRun drives one (injector, network) pair for `cycles` cycles,
// either plainly stepping every cycle or eliding quiet spans through
// the production elideStep, and records the exact delivery trace, the
// drop trace, the latency histogram, and how many cycles were actually
// stepped (vs jumped). The invariant sweep runs after every stepped
// cycle; elided spans are covered by the final sweep — by construction
// nothing in the network changes across them.
func elideRun(t *testing.T, c Config, w Workload, load float64, cycles int64, workers int, elide bool) (trace, drops []string, hist map[int64]uint64, inj *traffic.Injector, net *router.Network, stepped int64) {
	t.Helper()
	c.Router.Workers = workers
	net, inj = testPoint(t, c, w, load)
	hist = make(map[int64]uint64)
	net.OnDeliver = func(p *router.Packet, now int64) {
		trace = append(trace, fmt.Sprintf("%d #%d %d->%d hops=%d mis=%v/%d gen=%d att=%d",
			now, p.ID, p.Src, p.Dst, p.TotalHops, p.GlobalMisroute, p.LocalMisroutes, p.GenTime, p.Attempt))
		hist[now-p.GenTime]++
	}
	retry := net.OnDrop
	net.OnDrop = func(p *router.Packet, now int64) {
		drops = append(drops, fmt.Sprintf("%d #%d %d->%d att=%d", now, p.ID, p.Src, p.Dst, p.Attempt))
		if retry != nil {
			retry(p, now)
		}
	}
	for net.Now() < cycles {
		if elide && elideStep(net, inj, cycles) {
			continue
		}
		inj.Cycle()
		net.Step()
		stepped++
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d elide=%v cycle %d: %v", workers, elide, net.Now(), err)
		}
	}
	return trace, drops, hist, inj, net, stepped
}

// compareArms asserts the elided arm reproduced the stepped arm
// bit-for-bit: delivery trace (callback order included), drop trace,
// latency histogram, and every aggregate counter.
func compareArms(t *testing.T, label string,
	refTrace, trace, refDrops, drops []string,
	refHist, hist map[int64]uint64,
	refNet, net *router.Network, refInj, inj *traffic.Injector) {
	t.Helper()
	if net.NumGenerated != refNet.NumGenerated || net.NumBlocked != refNet.NumBlocked ||
		net.NumDelivered != refNet.NumDelivered || net.DeliveredPhits != refNet.DeliveredPhits ||
		net.InFlight != refNet.InFlight || net.NumDropped != refNet.NumDropped ||
		net.NumUnroutable != refNet.NumUnroutable {
		t.Fatalf("%s: counters diverged:\n  got  gen=%d blk=%d del=%d phits=%d inflight=%d drop=%d unr=%d\n  want gen=%d blk=%d del=%d phits=%d inflight=%d drop=%d unr=%d",
			label,
			net.NumGenerated, net.NumBlocked, net.NumDelivered, net.DeliveredPhits, net.InFlight, net.NumDropped, net.NumUnroutable,
			refNet.NumGenerated, refNet.NumBlocked, refNet.NumDelivered, refNet.DeliveredPhits, refNet.InFlight, refNet.NumDropped, refNet.NumUnroutable)
	}
	if net.NumMarked != refNet.NumMarked || net.NumNotified != refNet.NumNotified ||
		net.NumShed != refNet.NumShed || inj.Throttled() != refInj.Throttled() {
		t.Fatalf("%s: congestion counters diverged: marked %d/%d notified %d/%d shed %d/%d throttled %d/%d",
			label, net.NumMarked, refNet.NumMarked, net.NumNotified, refNet.NumNotified,
			net.NumShed, refNet.NumShed, inj.Throttled(), refInj.Throttled())
	}
	if len(trace) != len(refTrace) {
		t.Fatalf("%s: trace length %d vs %d", label, len(trace), len(refTrace))
	}
	for i := range trace {
		if trace[i] != refTrace[i] {
			t.Fatalf("%s: trace diverged at delivery %d:\n  got  %s\n  want %s", label, i, trace[i], refTrace[i])
		}
	}
	if len(drops) != len(refDrops) {
		t.Fatalf("%s: drop trace length %d vs %d", label, len(drops), len(refDrops))
	}
	for i := range drops {
		if drops[i] != refDrops[i] {
			t.Fatalf("%s: drop trace diverged at %d:\n  got  %s\n  want %s", label, i, drops[i], refDrops[i])
		}
	}
	if len(hist) != len(refHist) {
		t.Fatalf("%s: histogram has %d latencies vs %d", label, len(hist), len(refHist))
	}
	//lint:ordered per-bin histogram equality; order cannot affect outcomes
	for lat, n := range refHist {
		if hist[lat] != n {
			t.Fatalf("%s: latency %d count %d vs %d", label, lat, hist[lat], n)
		}
	}
}

// TestElisionEquivalence is the tentpole acceptance gate: for
// {Base, PB, ECtN} × {idle uniform, bursty long-OFF, faults-armed},
// at workers 1–4, an elided run must be bit-identical to plainly
// stepping every cycle — same delivery and drop traces (callback order
// included), same latency histogram, same counters — while actually
// jumping a substantial share of the clock.
func TestElisionEquivalence(t *testing.T) {
	type regime struct {
		name   string
		w      Workload
		load   float64
		faults bool
	}
	regimes := []regime{
		// Deep-idle Bernoulli arrivals: long quiet gaps between packets.
		{"un-idle", UN(), 0.002, false},
		// On-off arrivals with long OFF phases: the calendar heap is the
		// horizon; jumps land exactly on the next scheduled arrival.
		{"bursty-longoff", UN().WithBurst(30, 600, 0.3), 0.02, false},
		// The fault-equivalence plan armed over an idle run: link and
		// router events (and the random cable batch) land mid-span, and
		// retransmission keeps the retry heap in the horizon.
		{"faults-armed", UN(), 0.005, true},
	}
	algos := []routing.Algo{routing.Base, routing.PB, routing.ECtN}
	const cycles = 1200
	for _, algo := range algos {
		for _, rg := range regimes {
			t.Run(fmt.Sprintf("%v-%s", algo, rg.name), func(t *testing.T) {
				c := NewConfig(Tiny.Params(), algo)
				if rg.faults {
					c.Router.Faults = faultPlan()
				}
				for _, workers := range []int{1, 2, 3, 4} {
					refTrace, refDrops, refHist, refInj, refNet, refSteps := elideRun(t, c, rg.w, rg.load, cycles, workers, false)
					if refSteps != cycles {
						t.Fatalf("workers=%d: stepped arm ran %d steps, want %d", workers, refSteps, cycles)
					}
					if len(refTrace) == 0 {
						t.Fatal("stepped arm delivered nothing; the case proves nothing")
					}
					trace, drops, hist, inj, net, steps := elideRun(t, c, rg.w, rg.load, cycles, workers, true)
					if steps >= cycles {
						t.Fatalf("workers=%d: elided arm stepped every one of the %d cycles; nothing was elided", workers, cycles)
					}
					compareArms(t, fmt.Sprintf("workers=%d", workers),
						refTrace, trace, refDrops, drops, refHist, hist, refNet, net, refInj, inj)
				}
			})
		}
	}
}

// TestElisionFaultEventMidSpan pins the fault term of the horizon at
// the router level, with no injector at all: on an empty network whose
// only scheduled work is a fault plan, ElideHorizon must land exactly
// on each fault cycle (never beyond it), Step must apply the event
// there, and the next query must move to the following event.
func TestElisionFaultEventMidSpan(t *testing.T) {
	t.Parallel()
	c := NewConfig(Tiny.Params(), routing.Base)
	c.Router.Faults = router.FaultConfig{
		Events: []router.FaultEvent{
			{Kind: router.LinkDown, Router: 5, Port: 7, Cycle: 500},
			{Kind: router.RouterDown, Router: 12, Cycle: 700},
			{Kind: router.LinkUp, Router: 5, Port: 7, Cycle: 900},
			{Kind: router.RouterUp, Router: 12, Cycle: 1000},
		},
	}
	net, err := BuildNetwork(c, 2025)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int64{500, 700, 900, 1000} {
		j, ok := net.ElideHorizon(1 << 30)
		if !ok || j != want {
			t.Fatalf("at cycle %d: ElideHorizon = (%d, %v), want (%d, true)", net.Now(), j, ok, want)
		}
		net.ElideTo(j)
		if j2, ok2 := net.ElideHorizon(1 << 30); ok2 {
			t.Fatalf("at fault cycle %d: ElideHorizon = (%d, true), want pinned to stepping", j, j2)
		}
		net.Step() // applies the due fault event
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("after fault at %d: %v", j, err)
		}
	}
	// All events consumed: the horizon is now unbounded up to the target.
	if j, ok := net.ElideHorizon(4000); !ok || j != 4000 {
		t.Fatalf("after last event: ElideHorizon = (%d, %v), want (4000, true)", j, ok)
	}
	// The elided fault application must leave the same fabric behind as
	// stepped application: probe both with identical traffic and compare.
	stepNet, err := BuildNetwork(c, 2025)
	if err != nil {
		t.Fatal(err)
	}
	for stepNet.Now() < net.Now() {
		stepNet.Step()
	}
	probe := func(n *router.Network) []string {
		pat, err := UN().Pattern(n.Topo)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := traffic.NewInjector(n, traffic.Constant(pat), 0.1, 31)
		if err != nil {
			t.Fatal(err)
		}
		var trace []string
		n.OnDeliver = func(p *router.Packet, now int64) {
			trace = append(trace, fmt.Sprintf("%d #%d %d->%d hops=%d", now, p.ID, p.Src, p.Dst, p.TotalHops))
		}
		end := n.Now() + 300
		for n.Now() < end {
			inj.Cycle()
			n.Step()
		}
		return trace
	}
	elided, stepped := probe(net), probe(stepNet)
	if len(elided) == 0 || !reflect.DeepEqual(elided, stepped) {
		t.Fatalf("post-fault probe diverged (elided %d deliveries, stepped %d)", len(elided), len(stepped))
	}
}

// TestElisionMeasurementBitIdentical runs the full public entry points
// — fixed-window steady state, the adaptive budget path (bucket
// boundaries crossing jumps), and the transient tracer — with elision
// on and off, at loads idle enough to elide heavily. The complete
// result structs must match exactly: elided buckets are synthesized,
// never skipped.
func TestElisionMeasurementBitIdentical(t *testing.T) {
	c := tinyCfg(routing.ECtN)
	run := func() (SteadyResult, SteadyResult, TransientResult) {
		fixed, err := RunSteadyBudget(c, UN(), 0.01, Budget{Warmup: 600, Measure: 900, Seeds: 2})
		if err != nil {
			t.Fatal(err)
		}
		adaptive, err := RunSteadyBudget(c, UN(), 0.01, Budget{Warmup: 800, Measure: 1000, Seeds: 2, Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		transient, err := RunTransient(c, UN(), ADV(1), 0.01, transientBudget(600, 300, 600, 50, 2))
		if err != nil {
			t.Fatal(err)
		}
		return fixed, adaptive, transient
	}
	fixedOn, adaptiveOn, transientOn := run()
	elisionOff = true
	defer func() { elisionOff = false }()
	fixedOff, adaptiveOff, transientOff := run()
	if fixedOn != fixedOff {
		t.Errorf("fixed-window steady state diverged under elision:\nelided:  %+v\nstepped: %+v", fixedOn, fixedOff)
	}
	if adaptiveOn != adaptiveOff {
		t.Errorf("adaptive steady state diverged under elision:\nelided:  %+v\nstepped: %+v", adaptiveOn, adaptiveOff)
	}
	if !reflect.DeepEqual(transientOn, transientOff) {
		t.Errorf("transient trace diverged under elision:\nelided:  %+v\nstepped: %+v", transientOn, transientOff)
	}
}
