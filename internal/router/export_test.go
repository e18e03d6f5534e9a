package router

// Test harness over the fabric, compiled only into this package's test
// binary: the visit-everything oracle the equivalence tests pin Step
// against (the external ones in package router_test included), an
// eliding run for injection-free spans, and the liveness flags the fault
// tests read.

// StepFullScan is the oracle Step is pinned against: one cycle of the
// original loop, in which every phase visits every NIC and every router
// and every allocation iteration runs, whatever the activity — parked
// routers and quiet cycles included, so it relies on no active set, no
// wake and none of stepShard's reasons for leaving a router out of an
// iteration. Its phases and barriers are Step's, in straight-line code.
// Tests alternate it with Step or run it against Step; it steps a
// single-worker network only and panics on one with more shards.
func (n *Network) StepFullScan() {
	if n.fork != nil {
		panic("router: StepFullScan needs a single-worker network")
	}
	n.handleShardBucket(&n.shards[0], n.now&n.mask)
	n.replayDeliveries()
	n.replayNotifications()
	if n.faults != nil {
		n.applyFaults()
	}
	n.reservePackets()
	n.Alg.BeginCycle(n)
	for i := range n.nics {
		n.nicDrain(i)
	}
	for _, r := range n.Routers {
		r.routePhase()
	}
	for it := 0; it < n.Cfg.Speedup; it++ {
		for _, r := range n.Routers {
			r.allocate(it > 0)
		}
	}
	for _, r := range n.Routers {
		r.linkPhase()
	}
	n.now++
}

// Run advances the simulation by `cycles` cycles, eliding quiet spans
// (see elide.go): when nothing can happen until the next scheduled
// event, the clock jumps there instead of stepping cycle by cycle. The
// result is bit-identical to stepping every cycle. Run is for
// injection-free spans (drains, idle gaps).
func (n *Network) Run(cycles int64) {
	end := n.now + cycles
	for n.now < end {
		if j, ok := n.ElideHorizon(end); ok {
			n.ElideTo(j)
			continue
		}
		n.Step()
	}
}

// PortAlive reports whether output `port` leads over a live link to a
// live router. Ejection channels are always alive (a router's own nodes
// die with the router, which Inject handles). Routing reads the same flag
// through PickPort.
func (r *Router) PortAlive(port int) bool { return !r.out[port].dead }

// Alive reports whether the router itself is up.
func (r *Router) Alive() bool { return !r.down }

// PacketChunks returns the number of chunks in the packet table.
func (n *Network) PacketChunks() int { return len(n.pkts) - 1 }
