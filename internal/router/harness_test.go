package router_test

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"testing"

	"cbar/internal/rng"
	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/sim"
	"cbar/internal/traffic"
)

// The differential harness every engine-equivalence test runs through.
// A row is one scenario and an arm one way of stepping it; run turns the
// pair into a record of everything the run can be seen to do, and
// requireSame fails unless two records agree bit for bit. The package is
// external so that the StepFullScan oracle (export_test.go) and sim's
// constructors meet.

// row is one scenario.
type row struct {
	name  string
	algo  routing.Algo
	scale sim.Scale
	w     sim.Workload
	// From cycle switchAt (when positive) then's destination pattern
	// replaces w's; the arrival process stays w's.
	then       sim.Workload
	switchAt   int64
	load       float64
	congestion bool
	faults     router.FaultConfig
	// cycles are injected, then tail more are run with no injection.
	cycles, tail int64
	// Every checkpoint cycles the counters are recorded; every sweep
	// stepped cycles, and at the end, CheckInvariants runs.
	checkpoint, sweep int64
	netSeed, injSeed  uint64 // 0: 2025 and 31
}

// arm is one way of stepping a row.
type arm struct {
	oracle  bool // StepFullScan (single-worker only) instead of Step
	workers int
	elide   bool
	sweep   int64 // when positive, replaces the row's sweep period
}

func (a arm) String() string {
	return fmt.Sprintf("oracle=%v workers=%d elide=%v", a.oracle, a.workers, a.elide)
}

// call is one fabric callback: a delivery ('d'), a drop ('x') or a
// congestion notice ('n', whose node is src and severity ecn).
type call struct {
	kind                 byte
	now, gen             int64
	id                   uint64
	src, dst             int32
	hops, misL, att, ecn int8
	misG                 bool
}

// record is everything an arm must reproduce, plus the stepped-cycle
// count and the system itself for the tests' guards.
type record struct {
	calls []call           // in callback order
	hist  map[int64]uint64 // delivery latency → packets
	// counters holds a snapshot, in counterNames order, every
	// row.checkpoint cycles and one at the end.
	counters []uint64
	rngs     []rng.PCG // every router's random stream at the end
	stepped  int64
	net      *router.Network
	inj      *traffic.Injector
}

var counterNames = []string{"generated", "blocked", "delivered", "phits", "in flight", "dropped", "unroutable",
	"marked", "notified", "shed", "throttled", "retried", "pending retries", "busy ejection", "busy local", "busy global"}

func snapshot(counters []uint64, net *router.Network, inj *traffic.Injector) []uint64 {
	e, l, g := net.LinkBusy()
	return append(counters, net.NumGenerated, net.NumBlocked, net.NumDelivered, net.DeliveredPhits, uint64(net.InFlight),
		net.NumDropped, net.NumUnroutable, net.NumMarked, net.NumNotified, net.NumShed,
		inj.Throttled(), inj.Retried(), uint64(inj.PendingRetries()), uint64(e), uint64(l), uint64(g))
}

// build makes rw's fabric and injector for arm a as sim's point
// constructor does.
func build(t testing.TB, rw row, a arm) (*router.Network, *traffic.Injector) {
	t.Helper()
	c := sim.NewConfig(rw.scale.Params(), rw.algo)
	c.Router.Workers, c.Router.Congestion.Enabled, c.Router.Faults = a.workers, rw.congestion, rw.faults
	netSeed, injSeed := rw.netSeed, rw.injSeed
	if netSeed == 0 {
		netSeed, injSeed = 2025, 31
	}
	fatal := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	net, err := sim.BuildNetwork(c, netSeed)
	fatal(err)
	if got := net.Workers(); got != a.workers {
		t.Fatalf("built %d workers, want %d", got, a.workers)
	}
	p, err := rw.w.Pattern(net.Topo)
	fatal(err)
	phases := []traffic.Phase{{Pattern: p}}
	if rw.switchAt > 0 {
		p, err = rw.then.Pattern(net.Topo)
		fatal(err)
		phases = append(phases, traffic.Phase{FromCycle: rw.switchAt, Pattern: p})
	}
	sched, err := traffic.NewSchedule(phases...)
	fatal(err)
	var inj *traffic.Injector
	if s := rw.w.Source; s.Bursty {
		inj, err = traffic.NewSourceInjector(net, sched, rw.load, injSeed, traffic.SourceSpec{
			Kind: traffic.OnOffArrivals, OnMean: s.OnMean, OffMean: s.OffMean, PeakLoad: s.PeakLoad})
	} else {
		inj, err = traffic.NewInjector(net, sched, rw.load, injSeed)
	}
	fatal(err)
	return net, inj
}

// run steps rw under arm a and records it. An eliding arm jumps the way
// sim's driver does: to the earlier of the fabric's horizon and, while
// injecting, the injector's next arrival, capped at the next checkpoint.
// Elided spans change nothing, so only stepped cycles are swept.
func run(t testing.TB, rw row, a arm) record {
	t.Helper()
	net, inj := build(t, rw, a)
	rec := record{hist: make(map[int64]uint64), net: net, inj: inj}
	net.OnDeliver = func(p *router.Packet, now int64) {
		rec.calls = append(rec.calls, call{kind: 'd', now: now, gen: p.GenTime, id: p.ID, src: p.Src, dst: p.Dst,
			hops: p.TotalHops, misL: p.LocalMisroutes, att: p.Attempt, ecn: p.ECNMarks, misG: p.GlobalMisroute})
		rec.hist[now-p.GenTime]++
	}
	// The injector's own hooks (throttle, retransmitter) run behind the
	// recorders; a layer that is off keeps its nil hook.
	if notify := net.OnNotify; notify != nil {
		net.OnNotify = func(node, sev int, now int64) {
			rec.calls = append(rec.calls, call{kind: 'n', now: now, src: int32(node), ecn: int8(sev)})
			notify(node, sev, now)
		}
	}
	if retry := net.OnDrop; net.FaultsActive() {
		net.OnDrop = func(p *router.Packet, now int64) {
			rec.calls = append(rec.calls, call{kind: 'x', now: now, id: p.ID, src: p.Src, dst: p.Dst, att: p.Attempt})
			if retry != nil {
				retry(p, now)
			}
		}
	}
	step := net.Step
	if a.oracle {
		step = net.StepFullScan
	}
	check := func() {
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("%s %v cycle %d: %v", rw.name, a, net.Now(), err)
		}
	}
	sweep := cmp.Or(a.sweep, rw.sweep)
	end := rw.cycles + rw.tail
	for now := net.Now(); now < end; now = net.Now() {
		inject := now < rw.cycles
		until := end
		if inject {
			until = rw.cycles
		}
		if rw.checkpoint > 0 {
			until = min(until, (now/rw.checkpoint+1)*rw.checkpoint)
		}
		if a.elide {
			if j, ok := net.ElideHorizon(until); ok {
				if inject {
					j = min(j, inj.NextArrival(j-1))
				}
				if j > now {
					net.ElideTo(j)
				}
			}
		}
		if net.Now() == now {
			if inject {
				inj.Cycle()
			}
			step()
			rec.stepped++
			if sweep > 0 && net.Now()%sweep == 0 {
				check()
			}
		}
		if rw.checkpoint > 0 && net.Now()%rw.checkpoint == 0 {
			rec.counters = snapshot(rec.counters, net, inj)
		}
	}
	check()
	rec.counters = snapshot(rec.counters, net, inj)
	for _, r := range net.Routers {
		rec.rngs = append(rec.rngs, *r.RNG)
	}
	return rec
}

// requireSame fails unless got reproduced ref: every counter snapshot,
// the callbacks in order, the latency histogram and every router's
// random stream.
func requireSame(t testing.TB, label string, ref, got record) {
	t.Helper()
	n := len(counterNames)
	if len(got.counters) != len(ref.counters) || len(got.calls) != len(ref.calls) {
		t.Fatalf("%s: %d counter snapshots and %d callbacks, want %d and %d",
			label, len(got.counters)/n, len(got.calls), len(ref.counters)/n, len(ref.calls))
	}
	if i := firstDiff(got.counters, ref.counters); i >= 0 {
		t.Fatalf("%s: %s %d, want %d (snapshot %d of %d; the last is the end)",
			label, counterNames[i%n], got.counters[i], ref.counters[i], i/n+1, len(ref.counters)/n)
	}
	if i := firstDiff(got.calls, ref.calls); i >= 0 {
		t.Fatalf("%s: callback %d diverged:\n  got  %+v\n  want %+v", label, i, got.calls[i], ref.calls[i])
	}
	if len(got.hist) != len(ref.hist) {
		t.Fatalf("%s: histogram has %d latencies, want %d", label, len(got.hist), len(ref.hist))
	}
	for _, lat := range slices.Sorted(maps.Keys(ref.hist)) {
		cnt := ref.hist[lat]
		if got.hist[lat] != cnt {
			t.Fatalf("%s: latency %d count %d, want %d", label, lat, got.hist[lat], cnt)
		}
	}
	if i := firstDiff(got.rngs, ref.rngs); i >= 0 {
		t.Fatalf("%s: router %d's random stream ended in a different state", label, i)
	}
}

// firstDiff returns the first index at which two equal-length slices
// differ, or -1.
func firstDiff[E comparable](a, b []E) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// pin runs each row as a parallel subtest in which every arm must
// deliver something, pass guard (when set: the row's other checks that
// the case proves something) and reproduce the first arm's record.
func pin(t *testing.T, rows []row, arms []arm, guard func(*testing.T, row, arm, record)) {
	t.Parallel()
	for _, rw := range rows {
		t.Run(rw.name, func(t *testing.T) {
			t.Parallel()
			var ref record
			for i, a := range arms {
				rec := run(t, rw, a)
				if rec.net.NumDelivered == 0 {
					t.Fatalf("%v delivered nothing; the case proves nothing", a)
				}
				if guard != nil {
					guard(t, rw, a, rec)
				}
				if i == 0 {
					ref = rec
				} else {
					requireSame(t, a.String(), ref, rec)
				}
			}
		})
	}
}

// faultPlan is the tiny-fabric schedule of the fault and elision rows:
// link failures while loaded, a router outage (partition: unroutable
// packets), a random cable batch, repairs of both, and source
// retransmission — every clause of the fault engine in 1200 cycles.
func faultPlan() router.FaultConfig {
	return router.FaultConfig{Events: []router.FaultEvent{
		{Kind: router.LinkDown, Router: 5, Port: 7, Cycle: 150}, {Kind: router.LinkDown, Router: 20, Port: 8, Cycle: 200},
		{Kind: router.RouterDown, Router: 12, Cycle: 250}, {Kind: router.LinkUp, Router: 5, Port: 7, Cycle: 600},
		{Kind: router.RouterUp, Router: 12, Cycle: 800},
	}, RandomPct: 5, RandomAt: 350, RandomSeed: 9, RetryLimit: 2}
}

// stressFaults is the small_stress_mix fault plan (random:5%@500,12345 +
// routerdown:77@1600 + routerup:77@2100 + retry:3) with the router and
// the cycles scaled to a `cycles`-long run on the tiny fabric.
func stressFaults(cycles int64) router.FaultConfig {
	tp := sim.Tiny.Params()
	victim := int32(77 % ((tp.A*tp.H + 1) * tp.A))
	return router.FaultConfig{Events: []router.FaultEvent{
		{Kind: router.RouterDown, Router: victim, Cycle: cycles * 16 / 25}, {Kind: router.RouterUp, Router: victim, Cycle: cycles * 21 / 25},
	}, RandomPct: 5, RandomAt: cycles / 5, RandomSeed: 12345, RetryLimit: 3}
}
