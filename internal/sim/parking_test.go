package sim

import (
	"testing"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/traffic"
)

// Blocked-router parking is pinned to the fabric's visit-everything
// oracle by TestParkingEquivalence, in package router's external tests;
// this file keeps the optimisation's effect from rotting.

// countingAlg forwards to the wrapped mechanism and counts Route calls
// and grants.
type countingAlg struct {
	router.Algorithm
	routes, grants uint64
}

func (a *countingAlg) Route(r *router.Router, p *router.Packet, port, vc int) router.Request {
	a.routes++
	return a.Algorithm.Route(r, p, port, vc)
}

func (a *countingAlg) OnGrant(r *router.Router, p *router.Packet, port, vc, out, outVC int) {
	a.grants++
	a.Algorithm.OnGrant(r, p, port, vc, out, outVC)
}

// TestParkingCutsRouteCalls keeps the optimisation from rotting: MIN
// under ADV+1 pins at 1/(a·p) with every NIC full and nearly every head
// blocked, which cost 200+ Route calls per grant when blocked routers
// were revisited every cycle. With parking it is bounded by the events a
// blocked router sees between grants. That Step allocates nothing on
// this point is TestSteadyStateAllocations' Small row.
func TestParkingCutsRouteCalls(t *testing.T) {
	c := NewConfig(Small.Params(), routing.Min)
	alg := &countingAlg{Algorithm: routing.MustNew(routing.Min, c.Opts)}
	net, err := router.Build(c.Router, alg, 1)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := ADV(1).Pattern(net.Topo)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := traffic.NewInjector(net, traffic.Constant(pat), 0.4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		inj.Cycle()
		net.Step()
	}
	alg.routes, alg.grants = 0, 0
	for i := 0; i < 1000; i++ {
		inj.Cycle()
		net.Step()
	}
	routes, grants := alg.routes, alg.grants // before the sweep below replays parked heads
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if grants == 0 {
		t.Fatal("no grants in the measured window")
	}
	if perGrant := float64(routes) / float64(grants); perGrant > 60 {
		t.Fatalf("%.1f Route calls per grant under saturated MIN/ADV+1, want <= 60 (%d calls, %d grants)",
			perGrant, routes, grants)
	}
}
