package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/traffic"
)

// deliveryTrace records the exact delivery sequence of a network.
func deliveryTrace(net *router.Network) *[]string {
	var trace []string
	net.OnDeliver = func(p *router.Packet, now int64) {
		trace = append(trace, fmt.Sprintf("%d #%d %d->%d hops=%d mis=%v/%d gen=%d att=%d ecn=%d",
			now, p.ID, p.Src, p.Dst, p.TotalHops, p.GlobalMisroute, p.LocalMisroutes, p.GenTime, p.Attempt, p.ECNMarks))
	}
	return &trace
}

// faultPlan is a tiny-fabric schedule with every clause of the fault
// engine: link failures, a router outage, a random cable batch, repairs
// and source retransmission.
func faultPlan() router.FaultConfig {
	return router.FaultConfig{Events: []router.FaultEvent{
		{Kind: router.LinkDown, Router: 5, Port: 7, Cycle: 150}, {Kind: router.LinkDown, Router: 20, Port: 8, Cycle: 200},
		{Kind: router.RouterDown, Router: 12, Cycle: 250}, {Kind: router.LinkUp, Router: 5, Port: 7, Cycle: 600},
		{Kind: router.RouterUp, Router: 12, Cycle: 800},
	}, RandomPct: 5, RandomAt: 350, RandomSeed: 9, RetryLimit: 2}
}

// handLoopCounters is every fabric and injector counter the driver must
// leave as the hand loop does.
func handLoopCounters(net *router.Network, inj *traffic.Injector) [12]uint64 {
	return [12]uint64{net.NumGenerated, net.NumBlocked, net.NumDelivered, net.DeliveredPhits, uint64(net.InFlight),
		net.NumDropped, net.NumUnroutable, net.NumMarked, net.NumNotified, net.NumShed, inj.Throttled(), inj.Retried()}
}

// TestAdvanceMatchesHandLoop pins the driver to the loop it replaced.
// The reference is the literal inj.Cycle(); net.Step() loop, kept here
// on purpose; point.advance, called with bounds that split the run at a
// warmup edge, at 25-cycle buckets and at odd cycles, must reproduce its
// delivery trace, fabric and injector counters and final clock, with
// elision on and off, at 1 and 2 shard workers, on the Bernoulli fast
// path, the bursty calendar, with congestion management on and under a
// fault plan with retransmission.
func TestAdvanceMatchesHandLoop(t *testing.T) {
	const cycles, warmup = 900, 300
	regimes := []struct {
		name  string
		w     Workload
		load  float64
		apply func(c *Config)
	}{
		{"bernoulli", UN(), 0.004, func(*Config) {}},
		{"bursty", UN().WithBurst(30, 600, 0.3), 0.02, func(*Config) {}},
		{"congestion", HotspotUN(0.3, 8), 0.7, func(c *Config) { c.Router.Congestion = congestionOn() }},
		{"faults-retry", UN(), 0.01, func(c *Config) { c.Router.Faults = faultPlan() }},
	}
	splits := []struct {
		name string
		next func(now int64) int64 // the bound of the advance call made at cycle now
	}{
		{"warmup-edge", func(now int64) int64 {
			if now < warmup {
				return warmup
			}
			return cycles
		}},
		{"buckets", func(now int64) int64 { return now + adaptiveBucket }},
		{"odd", func(now int64) int64 { return now + 1 + 2*(now%7) }},
	}
	defer func() { elisionOff = false }()
	for _, rg := range regimes {
		for _, workers := range []int{1, 2} {
			c := tinyCfg(routing.ECtN)
			c.Router.Workers = workers
			rg.apply(&c)
			refNet, refInj := testPoint(t, c, rg.w, rg.load)
			refTrace := deliveryTrace(refNet)
			for refNet.Now() < cycles {
				refInj.Cycle()
				refNet.Step()
			}
			if len(*refTrace) == 0 {
				t.Fatalf("%s: the hand loop delivered nothing; the case proves nothing", rg.name)
			}
			for _, sp := range splits {
				for _, off := range []bool{false, true} {
					elisionOff = off
					label := fmt.Sprintf("%s workers=%d split=%s elisionOff=%v", rg.name, workers, sp.name, off)
					net, inj := testPoint(t, c, rg.w, rg.load)
					trace := deliveryTrace(net)
					p := &point{net: net, inj: inj}
					for net.Now() < cycles {
						until := min(sp.next(net.Now()), cycles)
						if err := p.advance(context.Background(), until); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if net.Now() != until {
							t.Fatalf("%s: advance(%d) stopped at cycle %d", label, until, net.Now())
						}
					}
					if !slices.Equal(*trace, *refTrace) {
						t.Fatalf("%s: delivery trace diverged (%d deliveries vs %d)", label, len(*trace), len(*refTrace))
					}
					if got, want := handLoopCounters(net, inj), handLoopCounters(refNet, refInj); got != want {
						t.Fatalf("%s: counters %v, want %v", label, got, want)
					}
					if err := net.CheckInvariants(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
			}
		}
	}
}

// TestAdvanceKeepsJumpLength: the context poll stride must not cap
// jumps — an idle point with a live context crosses a span many strides
// long in a handful of loop iterations, not one per stride.
func TestAdvanceKeepsJumpLength(t *testing.T) {
	p, err := newPoint(tinyCfg(routing.Base), UN(), 0, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	ctx := countingCtx{Context: context.Background(), polls: &polls}
	if err := p.advance(ctx, 1000*ctxPollStride); err != nil {
		t.Fatal(err)
	}
	if polls > 3 {
		t.Fatalf("an empty fabric took %d polled iterations to cross 1000 poll strides; jumps are being capped", polls)
	}
}

// TestSaturatedInjectorIsTheSkipLoop pins the Bernoulli fast path at
// prob 1 (packet size 1, load 1), where every geometric gap is 0 and
// draws no uniform: the skip loop visits every node in order, skips a
// throttled node without drawing its destination, and NextArrival's
// stash resumes at node 0. The counts and delivery-sequence hashes are
// those of the dedicated saturated branch the loop replaced.
func TestSaturatedInjectorIsTheSkipLoop(t *testing.T) {
	for _, tc := range []struct {
		congestion                               bool
		generated, blocked, delivered, throttled uint64
		trace                                    uint64
	}{
		{false, 226748, 205252, 185544, 0, 0x071a2559991041f4},
		{true, 140288, 0, 131721, 284904, 0x46349a0f2e2cfbf1},
	} {
		c := tinyCfg(routing.Base)
		c.Router.PacketSize = 1
		if tc.congestion {
			c.Router.Congestion = congestionOn()
		}
		p, err := newPoint(c, UN(), 1.0, 3, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		p.net.OnDeliver = func(pk *router.Packet, now int64) {
			fmt.Fprintf(h, "%d %d %d %d %d\n", now, pk.ID, pk.Src, pk.Dst, pk.GenTime)
		}
		Advance(p.net, p.inj, 3000)
		got := []uint64{p.net.NumGenerated, p.net.NumBlocked, p.net.NumDelivered, p.inj.Throttled(), h.Sum64()}
		want := []uint64{tc.generated, tc.blocked, tc.delivered, tc.throttled, tc.trace}
		if !slices.Equal(got, want) {
			t.Errorf("congestion=%v: generated/blocked/delivered/throttled/trace hash %#x, want %#x", tc.congestion, got, want)
		}
	}
}

// countingCtx counts Done calls: advance polls at most once per loop
// iteration, so the count bounds the iterations from below.
type countingCtx struct {
	context.Context
	polls *int
}

func (c countingCtx) Done() <-chan struct{} {
	*c.polls++
	return c.Context.Done()
}

// TestExperimentsHonorBudget is the regression test for experiments
// that built their configs by hand and dropped budget fields: every
// experiment must thread Budget.Faults into its simulations (an invalid
// plan surfaces as a Build error) and stop on Budget.Ctx (a cancelled
// context returns its error).
func TestExperimentsHonorBudget(t *testing.T) {
	t.Parallel()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range AllExperiments() {
		b := DefaultBudget(Tiny)
		b.Seeds = 1
		b.Faults = router.FaultConfig{RandomPct: 150}
		err := e.Run(Tiny, b, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "fault") {
			t.Errorf("%s: invalid fault plan in the budget: got error %v, want the Build error", e.ID, err)
		}
		b.Faults = router.FaultConfig{}
		b.Ctx = cancelled
		if err := e.Run(Tiny, b, &bytes.Buffer{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled budget context: got error %v, want context.Canceled", e.ID, err)
		}
	}
}
