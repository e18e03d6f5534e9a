package router_test

import (
	"fmt"
	"testing"

	"cbar/internal/rng"
	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/sim"
	"cbar/internal/traffic"
)

// parkArm is one way of stepping the same simulation.
type parkArm struct {
	fullScan bool // step with the StepFullScan oracle (sequential only)
	workers  int
	elide    bool
}

func (a parkArm) String() string {
	return fmt.Sprintf("fullScan=%v workers=%d elide=%v", a.fullScan, a.workers, a.elide)
}

// parkResult is everything an arm must reproduce bit for bit.
type parkResult struct {
	trace, drops []string
	net          *router.Network
	inj          *traffic.Injector
	rngs         []rng.PCG // every router's random stream at the end
}

// stressFaults is the small_stress_mix fault plan (random:5%@500,12345 +
// routerdown:77@1600 + routerup:77@2100 + retry:3) with the router and
// the cycles scaled to a `cycles`-long run on a fabric of `routers`.
func stressFaults(routers int, cycles int64) router.FaultConfig {
	victim := int32(77 % routers)
	return router.FaultConfig{
		Events: []router.FaultEvent{
			{Kind: router.RouterDown, Router: victim, Cycle: cycles * 16 / 25},
			{Kind: router.RouterUp, Router: victim, Cycle: cycles * 21 / 25},
		},
		RandomPct: 5, RandomAt: cycles / 5, RandomSeed: 12345,
		RetryLimit: 3,
	}
}

// parkRun offers ADV+1 past saturation for `cycles` cycles, then stops
// injecting and runs `tail` more cycles, which is where blocked heads
// outnumber moving ones and parked routers let whole spans elide. An
// eliding arm jumps the way sim's driver does: to the earlier of the
// fabric's horizon and the injector's next arrival.
func parkRun(t *testing.T, c sim.Config, arm parkArm, cycles, tail int64) parkResult {
	t.Helper()
	c.Router.Workers = arm.workers
	net, err := sim.BuildNetwork(c, 2025)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := sim.ADV(1).Pattern(net.Topo)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(net, traffic.Constant(pat), 0.6, 31)
	if err != nil {
		t.Fatal(err)
	}
	step := stepFunc(net, arm.fullScan)
	res := parkResult{net: net, inj: inj}
	net.OnDeliver = func(p *router.Packet, now int64) {
		res.trace = append(res.trace, fmt.Sprintf("%d #%d %d->%d hops=%d mis=%v/%d gen=%d att=%d ecn=%d",
			now, p.ID, p.Src, p.Dst, p.TotalHops, p.GlobalMisroute, p.LocalMisroutes, p.GenTime, p.Attempt, p.ECNMarks))
	}
	retry := net.OnDrop
	net.OnDrop = func(p *router.Packet, now int64) {
		res.drops = append(res.drops, fmt.Sprintf("%d #%d %d->%d att=%d", now, p.ID, p.Src, p.Dst, p.Attempt))
		if retry != nil {
			retry(p, now)
		}
	}
	check := func() {
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("%v cycle %d: %v", arm, net.Now(), err)
		}
	}
	for net.Now() < cycles {
		if arm.elide {
			if j, ok := net.ElideHorizon(cycles); ok {
				if a := inj.NextArrival(j - 1); a < j {
					j = a
				}
				if j > net.Now() {
					net.ElideTo(j)
					continue
				}
			}
		}
		inj.Cycle()
		step()
		// The sweep replays the decision of every parked head, so run it
		// often: a missing wake shows up within a few cycles of the
		// mutation that needed it.
		if net.Now()%7 == 0 {
			check()
		}
	}
	end := cycles + tail
	for net.Now() < end {
		if arm.elide {
			if j, ok := net.ElideHorizon(end); ok {
				net.ElideTo(j)
				continue
			}
		}
		step()
		if net.Now()%7 == 0 {
			check()
		}
	}
	check()
	for _, r := range net.Routers {
		res.rngs = append(res.rngs, *r.RNG)
	}
	return res
}

// compareParkArms asserts `got` reproduced `ref`: the delivery and drop
// traces in callback order, every fabric and congestion counter, the
// retransmission count, and the state of every router's random stream.
func compareParkArms(t *testing.T, label string, ref, got parkResult) {
	t.Helper()
	rn, n := ref.net, got.net
	if n.NumGenerated != rn.NumGenerated || n.NumBlocked != rn.NumBlocked ||
		n.NumDelivered != rn.NumDelivered || n.DeliveredPhits != rn.DeliveredPhits ||
		n.InFlight != rn.InFlight || n.NumDropped != rn.NumDropped ||
		n.NumUnroutable != rn.NumUnroutable {
		t.Fatalf("%s: counters diverged:\n  got  gen=%d blk=%d del=%d phits=%d inflight=%d drop=%d unr=%d\n  want gen=%d blk=%d del=%d phits=%d inflight=%d drop=%d unr=%d",
			label,
			n.NumGenerated, n.NumBlocked, n.NumDelivered, n.DeliveredPhits, n.InFlight, n.NumDropped, n.NumUnroutable,
			rn.NumGenerated, rn.NumBlocked, rn.NumDelivered, rn.DeliveredPhits, rn.InFlight, rn.NumDropped, rn.NumUnroutable)
	}
	if n.NumMarked != rn.NumMarked || n.NumNotified != rn.NumNotified ||
		n.NumShed != rn.NumShed || got.inj.Throttled() != ref.inj.Throttled() {
		t.Fatalf("%s: congestion counters diverged: marked %d/%d notified %d/%d shed %d/%d throttled %d/%d",
			label, n.NumMarked, rn.NumMarked, n.NumNotified, rn.NumNotified,
			n.NumShed, rn.NumShed, got.inj.Throttled(), ref.inj.Throttled())
	}
	for _, tr := range []struct {
		kind      string
		got, want []string
	}{{"trace", got.trace, ref.trace}, {"drop trace", got.drops, ref.drops}} {
		if len(tr.got) != len(tr.want) {
			t.Fatalf("%s: %s length %d vs %d", label, tr.kind, len(tr.got), len(tr.want))
		}
		for i := range tr.got {
			if tr.got[i] != tr.want[i] {
				t.Fatalf("%s: %s diverged at %d:\n  got  %s\n  want %s", label, tr.kind, i, tr.got[i], tr.want[i])
			}
		}
	}
	if ref.inj.Retried() != got.inj.Retried() {
		t.Fatalf("%s: retried %d vs %d", label, got.inj.Retried(), ref.inj.Retried())
	}
	for i := range ref.rngs {
		if got.rngs[i] != ref.rngs[i] {
			t.Fatalf("%s: router %d's random stream ended in a different state", label, i)
		}
	}
}

// TestParkingEquivalence pins blocked-router parking to the StepFullScan
// oracle, which visits every router every cycle and so never depends on
// a wake: on ADV+1 offered past saturation, every mechanism × {plain,
// congestion management on, the stress fault plan with retransmission}
// must produce the same delivery and drop traces, counters and
// per-router random-stream states at workers {1, 2, 4} with elision on
// and off. A wake missing from any mutation point, or a mechanism whose
// Route breaks the contract in algorithm.go, diverges here or fails the
// parked-head replay in CheckInvariants.
func TestParkingEquivalence(t *testing.T) {
	const cycles, tail = 1000, 300
	features := []struct {
		name  string
		apply func(c *sim.Config)
	}{
		{"plain", func(*sim.Config) {}},
		{"congestion", func(c *sim.Config) { c.Router.Congestion = router.CongestionConfig{Enabled: true} }},
		{"faults", func(c *sim.Config) {
			c.Router.Congestion = router.CongestionConfig{Enabled: true}
			tp := c.Router.Topo
			c.Router.Faults = stressFaults((tp.A*tp.H+1)*tp.A, cycles)
		}},
	}
	for _, algo := range routing.All() {
		for _, f := range features {
			t.Run(fmt.Sprintf("%v-%s", algo, f.name), func(t *testing.T) {
				t.Parallel()
				c := sim.NewConfig(sim.Tiny.Params(), algo)
				f.apply(&c)
				ref := parkRun(t, c, parkArm{fullScan: true, workers: 1}, cycles, tail)
				if len(ref.trace) == 0 {
					t.Fatal("reference run delivered nothing; the case proves nothing")
				}
				if f.name == "faults" && ref.net.NumDropped == 0 {
					t.Fatal("reference run dropped nothing; the fault plan did not bite")
				}
				for _, workers := range []int{1, 2, 4} {
					for _, elide := range []bool{false, true} {
						arm := parkArm{workers: workers, elide: elide}
						compareParkArms(t, arm.String(), ref, parkRun(t, c, arm, cycles, tail))
					}
				}
			})
		}
	}
}
