package sim

import (
	"fmt"
	"testing"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/traffic"
)

// faultPlan is the equivalence-suite schedule: explicit link failures
// while loaded, a whole-router outage (partition: unroutable packets), a
// random cable batch, repairs of both, and source retransmission — every
// clause of the engine inside a 1200-cycle run on the tiny fabric.
func faultPlan() router.FaultConfig {
	return router.FaultConfig{
		Events: []router.FaultEvent{
			{Kind: router.LinkDown, Router: 5, Port: 7, Cycle: 150},
			{Kind: router.LinkDown, Router: 20, Port: 8, Cycle: 200},
			{Kind: router.RouterDown, Router: 12, Cycle: 250},
			{Kind: router.LinkUp, Router: 5, Port: 7, Cycle: 600},
			{Kind: router.RouterUp, Router: 12, Cycle: 800},
		},
		RandomPct: 5, RandomAt: 350, RandomSeed: 9,
		RetryLimit: 2,
	}
}

// faultRun drives one network through the fault plan, recording the
// delivery trace, the drop trace (chained ahead of the retransmitter's
// OnDrop hook), and the invariant sweep after every parallel cycle.
func faultRun(t *testing.T, c Config, w Workload, load float64, cycles int64, workers int) (trace, drops []string, inj *traffic.Injector, net *router.Network) {
	t.Helper()
	c.Router.Workers = workers
	c.Router.Faults = faultPlan()
	net, inj = testPoint(t, c, w, load)
	net.OnDeliver = func(p *router.Packet, now int64) {
		trace = append(trace, fmt.Sprintf("%d #%d %d->%d hops=%d mis=%v/%d gen=%d att=%d",
			now, p.ID, p.Src, p.Dst, p.TotalHops, p.GlobalMisroute, p.LocalMisroutes, p.GenTime, p.Attempt))
	}
	// NewInjector installed the retransmitter's OnDrop (RetryLimit > 0);
	// chain the trace recorder in front of it so the drop order is
	// pinned too.
	retry := net.OnDrop
	net.OnDrop = func(p *router.Packet, now int64) {
		drops = append(drops, fmt.Sprintf("%d #%d %d->%d att=%d", now, p.ID, p.Src, p.Dst, p.Attempt))
		if retry != nil {
			retry(p, now)
		}
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
	return trace, drops, inj, net
}

// TestParallelFaultEquivalence pins the fault engine bit-for-bit across
// worker counts: with links failing and recovering, a router outage, a
// random cable batch and source retransmission all active, the delivery
// trace, the drop trace (OnDrop order), and every fault counter must be
// identical at workers ∈ {2, 3, 4} to the 1-worker run — while the full
// invariant sweep holds after every parallel cycle. This is the
// determinism contract the sequential-point fault application and the
// ID-sorted victim finalization exist for.
func TestParallelFaultEquivalence(t *testing.T) {
	cases := []struct {
		name string
		algo routing.Algo
		w    Workload
		load float64
	}{
		{"base-un", routing.Base, UN(), 0.45},
		{"min-un", routing.Min, UN(), 0.45},
		{"pb-un", routing.PB, UN(), 0.45},
		{"ectn-adv1", routing.ECtN, ADV(1), 0.35},
	}
	const cycles = 1200
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConfig(Tiny.Params(), tc.algo)
			refTrace, refDrops, refInj, refNet := faultRun(t, c, tc.w, tc.load, cycles, 1)
			if refNet.NumDropped == 0 || refNet.NumUnroutable == 0 || refInj.Retried() == 0 {
				t.Fatalf("reference run exercised no faults (dropped=%d unroutable=%d retried=%d); the case proves nothing",
					refNet.NumDropped, refNet.NumUnroutable, refInj.Retried())
			}
			for _, workers := range []int{2, 3, 4} {
				trace, drops, inj, net := faultRun(t, c, tc.w, tc.load, cycles, workers)
				if net.NumDropped != refNet.NumDropped || net.NumUnroutable != refNet.NumUnroutable ||
					inj.Retried() != refInj.Retried() || inj.PendingRetries() != refInj.PendingRetries() {
					t.Fatalf("workers=%d fault counters diverged: dropped %d/%d unroutable %d/%d retried %d/%d pending %d/%d",
						workers, net.NumDropped, refNet.NumDropped, net.NumUnroutable, refNet.NumUnroutable,
						inj.Retried(), refInj.Retried(), inj.PendingRetries(), refInj.PendingRetries())
				}
				if net.NumDelivered != refNet.NumDelivered || net.NumGenerated != refNet.NumGenerated ||
					net.NumBlocked != refNet.NumBlocked {
					t.Fatalf("workers=%d delivery diverged: %d/%d delivered, %d/%d generated, %d/%d blocked",
						workers, net.NumDelivered, refNet.NumDelivered, net.NumGenerated, refNet.NumGenerated,
						net.NumBlocked, refNet.NumBlocked)
				}
				if len(drops) != len(refDrops) {
					t.Fatalf("workers=%d drop trace length %d vs %d", workers, len(drops), len(refDrops))
				}
				for i := range drops {
					if drops[i] != refDrops[i] {
						t.Fatalf("workers=%d drop trace diverged at %d:\n  got  %s\n  want %s",
							workers, i, drops[i], refDrops[i])
					}
				}
				if len(trace) != len(refTrace) {
					t.Fatalf("workers=%d trace length %d vs %d", workers, len(trace), len(refTrace))
				}
				for i := range trace {
					if trace[i] != refTrace[i] {
						t.Fatalf("workers=%d trace diverged at delivery %d:\n  got  %s\n  want %s",
							workers, i, trace[i], refTrace[i])
					}
				}
			}
		})
	}
}

// inertRun drives one network with an optional fault config and returns
// the delivery trace.
func inertRun(t *testing.T, c Config, fc router.FaultConfig) ([]string, *router.Network) {
	t.Helper()
	c.Router.Faults = fc
	net, err := BuildNetwork(c, 2025)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := UN().Pattern(net.Topo)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(net, traffic.Constant(pat), 0.4, 31)
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	net.OnDeliver = func(p *router.Packet, now int64) {
		trace = append(trace, fmt.Sprintf("%d #%d %d->%d hops=%d mis=%v/%d gen=%d",
			now, p.ID, p.Src, p.Dst, p.TotalHops, p.GlobalMisroute, p.LocalMisroutes, p.GenTime))
	}
	for cyc := 0; cyc < 800; cyc++ {
		inj.Cycle()
		net.Step()
	}
	return trace, net
}

// TestFaultsOffIsInert pins the off-mode contract at both levels. A
// zero-valued FaultConfig allocates nothing: no engine, no OnDrop hook,
// no counters. And a *scheduled but never-firing* plan is dynamically
// bit-inert: because routing's fault-aware candidate checks preserve the
// RNG draw sequence while every component is live, the delivery trace is
// identical to a build without any plan — which is what keeps the golden
// CSVs byte-for-byte stable and makes a far-future fault plan free until
// it fires.
func TestFaultsOffIsInert(t *testing.T) {
	quiescent := router.FaultConfig{Events: []router.FaultEvent{
		{Kind: router.LinkDown, Router: 0, Port: 7, Cycle: 1 << 40},
	}}
	for _, algo := range []routing.Algo{routing.Valiant, routing.PB, routing.Base} {
		t.Run(algo.String(), func(t *testing.T) {
			c := NewConfig(Tiny.Params(), algo)
			plain, plainNet := inertRun(t, c, router.FaultConfig{})
			if plainNet.FaultsActive() {
				t.Fatal("zero FaultConfig allocated a fault engine")
			}
			if plainNet.OnDrop != nil {
				t.Fatal("zero FaultConfig installed an OnDrop hook")
			}
			armed, armedNet := inertRun(t, c, quiescent)
			if !armedNet.FaultsActive() {
				t.Fatal("scheduled plan did not arm the fault engine")
			}
			if armedNet.NumDropped != 0 || armedNet.NumUnroutable != 0 {
				t.Fatalf("never-firing plan produced activity: dropped=%d unroutable=%d",
					armedNet.NumDropped, armedNet.NumUnroutable)
			}
			if len(armed) != len(plain) {
				t.Fatalf("armed trace length %d vs plain %d", len(armed), len(plain))
			}
			for i := range armed {
				if armed[i] != plain[i] {
					t.Fatalf("armed plan diverged from plain at delivery %d:\n  got  %s\n  want %s",
						i, armed[i], plain[i])
				}
			}
		})
	}
}
