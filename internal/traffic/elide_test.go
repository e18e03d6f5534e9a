package traffic

import (
	"testing"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/topology"
)

// TestThrottleHoldoffAcrossElidedSpan covers the AIMD-throttle edge
// case of quiet-cycle elision: a notified source's hold-off window and
// pacing gap expire in the middle of an elided span, and the lazy
// (admit-time) recovery must make the jumped run bit-identical to the
// stepped one anyway. The test drives the real notification entry
// point (net.OnNotify, wired by NewInjector to the throttle) on two
// identical pairs, then steps one arm plainly while the other elides
// exactly as the sim cycle loops do — asserting that at least one jump
// actually crossed the hold-off expiry.
func TestThrottleHoldoffAcrossElidedSpan(t *testing.T) {
	const (
		load     = 0.001
		seed     = 11
		notifyAt = 200
		end      = 6000
	)
	build := func() (*router.Network, *[]deliveryRecord, *Injector) {
		cfg := router.DefaultConfig(topology.Params{P: 4, A: 4, H: 2})
		cfg.Congestion = router.CongestionConfig{Enabled: true}
		n, err := router.Build(cfg, routing.MustNew(routing.Min, routing.DefaultOptions()), seed)
		if err != nil {
			t.Fatal(err)
		}
		var trace []deliveryRecord
		n.OnDeliver = func(p *router.Packet, now int64) {
			trace = append(trace, deliveryRecord{p.Src, p.Dst, p.GenTime, now})
		}
		inj, err := NewInjector(n, Constant(mustUniform(t, n.Topo)), load, seed)
		if err != nil {
			t.Fatal(err)
		}
		return n, &trace, inj
	}
	netA, traceA, injA := build()
	netB, traceB, injB := build()
	if injA.th == nil || injB.th == nil {
		t.Fatal("congestion layer did not arm the throttle")
	}
	stepTo := func(n *router.Network, inj *Injector, to int64) {
		for n.Now() < to {
			inj.Cycle()
			n.Step()
		}
	}

	// Phase 1: both arms step plainly to the notification cycle, then
	// the same burst of notifications cuts the same sources.
	victims := []int{0, 1, 5, 17, 40}
	stepTo(netA, injA, notifyAt)
	stepTo(netB, injB, notifyAt)
	for _, v := range victims {
		injA.th.onNotify(v, 2, notifyAt)
		injB.th.onNotify(v, 2, notifyAt)
	}
	// The hold-off is one notification delay (110 cycles under Table I),
	// so it expires inside the idle phase, where spans jump across it.
	hold := injB.th.holdUntil[victims[0]]
	if want := notifyAt + netB.Cfg.NotifyDelay(); hold != want {
		t.Fatalf("notification armed a hold-off until %d, want %d", hold, want)
	}
	cut := injB.th.ratePct(victims[0])
	if cut >= 100 {
		t.Fatalf("notification did not cut the rate (%d%%)", cut)
	}

	// Phase 2: arm A steps every cycle; arm B elides quiet spans the
	// way sim's loops do (network horizon ∧ injector next-arrival).
	stepTo(netA, injA, end)
	var crossedHold bool
	var steps int64
	for netB.Now() < end {
		if j, ok := netB.ElideHorizon(end); ok {
			if a := injB.NextArrival(j - 1); a < j {
				j = a
			}
			if j > netB.Now() {
				if netB.Now() < hold && j >= hold {
					crossedHold = true
				}
				netB.ElideTo(j)
				continue
			}
		}
		injB.Cycle()
		netB.Step()
		steps++
	}
	if steps >= end-notifyAt {
		t.Fatal("nothing was elided; the case proves nothing")
	}
	if !crossedHold {
		t.Fatalf("no jump crossed the hold-off expiry at cycle %d; the case proves nothing", hold)
	}
	sameTrace(t, "throttled", *traceA, *traceB)
	if a, b := injA.Throttled(), injB.Throttled(); a != b {
		t.Fatalf("throttled count diverged: %d vs %d", a, b)
	}
	// Recovery is lazy — applied at the next injection attempt — so
	// probe it the way a post-jump arrival would: one admit call per
	// victim, identical on both arms, must agree and must have applied
	// the additive increase accrued across the elided spans.
	for _, v := range victims {
		if a, b := injA.th.ratePct(v), injB.th.ratePct(v); a != b {
			t.Fatalf("node %d rate diverged before the probe: %d%% vs %d%%", v, a, b)
		}
		if a, b := injA.th.admit(v, end), injB.th.admit(v, end); a != b {
			t.Fatalf("node %d admit diverged: %v vs %v", v, a, b)
		}
		if a, b := injA.th.ratePct(v), injB.th.ratePct(v); a != b {
			t.Fatalf("node %d rate diverged after the probe: %d%% vs %d%%", v, a, b)
		}
		if got := injB.th.ratePct(v); got <= cut {
			t.Fatalf("node %d never recovered past the cut (%d%% <= %d%%)", v, got, cut)
		}
	}
}
