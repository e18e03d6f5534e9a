package sim

import (
	"fmt"
	"reflect"
	"testing"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/traffic"
)

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
