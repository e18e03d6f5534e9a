package router

// Request is a routing decision for the packet at the head of an input
// VC: the desired output port and downstream VC. OK=false means the
// algorithm declines to request for now (the packet stalls and is asked
// again at the router's next route visit).
type Request struct {
	Out int
	VC  int
	OK  bool
}

// Algorithm is the routing policy plugged into the fabric. The fabric
// calls the hooks at precisely the micro-architectural instants the paper
// defines for contention counters, so policies can maintain their state
// (contention counters, ECtN arrays, PB saturation flags) without owning
// any mechanics:
//
//   - OnArrive: a packet was enqueued into an input VC (global-input
//     arrivals update ECtN partial counters here);
//   - OnHead: a packet reached the head of an input VC for the first
//     time (contention counters increment here, §III-B);
//   - Route: called for every unrouted head packet on every cycle its
//     router is in the route set; the decision may change from call to
//     call (in-transit adaptivity). See the Route contract below;
//   - OnGrant: switch allocation succeeded; path commitments (Valiant
//     phase changes, misroute flags) are recorded here;
//   - OnDequeue: the packet's tail left the input queue (contention
//     counters decrement here, §III-B).
//
// BeginCycle runs once per cycle before routing and hosts periodic
// group-level exchanges (PB saturation broadcast, ECtN combine).
//
// The Route contract. The fabric stops visiting a router whose heads are
// all blocked and whose last visit changed nothing (blocked-router
// parking, see Network.stepShard), and visits it again only after one of
// the mutations listed at Router.wake. That is sound exactly when a
// repeated Route call on unchanged inputs is a no-op, so:
//
//   - a Route call that does not advance r.RNG must be idempotent — the
//     same Request again, and no further change to the packet or to
//     algorithm state (a one-time source decision that records itself on
//     the packet is fine: the second call finds it recorded);
//   - such a call may read only the packet, the topology and
//     configuration, router r's own fabric state as exposed by Credits,
//     OutFree, CanAccept, Occupancy, PortAlive and the input-queue
//     accessors, r's own algorithm state (Contention, Ectn) — each of
//     which changes only through an event that wakes r — and state shared
//     beyond r whose every change is followed by Network.WakeGroup for
//     r's group before the next route phase (ECtN's combined arrays);
//   - it must not read the clock (Network.Now, Router.LinkBusy): time
//     passing wakes nobody.
//
// A call that draws from r.RNG is exempt — the draw itself keeps the
// router in the route set for the next cycle — which is what lets the
// randomized mechanisms re-sample a blocked head every cycle exactly as
// before, and lets PB read its group's saturation flags inside its
// one-time (always drawing) source decision. FullScan ignores parking
// and is the oracle: TestParkingEquivalence pins every shipped
// mechanism, and CheckInvariants replays the decision of every parked
// head.
//
// Algorithms are called from a single goroutine per network; they need no
// internal locking.
type Algorithm interface {
	Name() string
	// Attach is called once when the network is built.
	Attach(n *Network)
	BeginCycle(n *Network)
	Route(r *Router, p *Packet, port, vc int) Request
	OnArrive(r *Router, p *Packet, port, vc int)
	OnHead(r *Router, p *Packet, port, vc int)
	OnGrant(r *Router, p *Packet, port, vc, out, outVC int)
	OnDequeue(r *Router, p *Packet, port, vc int)
}

// StateChecker is an optional Algorithm extension for policies that
// maintain their state incrementally (event-driven PB saturation flags,
// dirty-group ECtN combines): CheckState cross-checks that state against
// a fresh full recompute. Network.CheckInvariants calls it whenever the
// algorithm implements it, so every invariant sweep in the test suite
// also audits the event-driven bookkeeping.
type StateChecker interface {
	CheckState(n *Network) error
}

// NopHooks provides no-op implementations of every Algorithm method
// except Name and Route, for embedding in concrete policies.
type NopHooks struct{}

// Attach implements Algorithm.
func (NopHooks) Attach(*Network) {}

// BeginCycle implements Algorithm.
func (NopHooks) BeginCycle(*Network) {}

// OnArrive implements Algorithm.
func (NopHooks) OnArrive(*Router, *Packet, int, int) {}

// OnHead implements Algorithm.
func (NopHooks) OnHead(*Router, *Packet, int, int) {}

// OnGrant implements Algorithm.
func (NopHooks) OnGrant(*Router, *Packet, int, int, int, int) {}

// OnDequeue implements Algorithm.
func (NopHooks) OnDequeue(*Router, *Packet, int, int) {}
