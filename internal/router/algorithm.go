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
// (contention counters, ECtN arrays) without owning any mechanics:
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
// group-level exchanges (the ECtN combine); a policy that gives it a
// body also states that body's horizon (CycleHorizon, elide.go).
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
//     OutFree, CanAccept, Occupancy, the input-queue accessors and the
//     port liveness PickPort filters on, the algorithm's own state for r
//     (its contention counters, its ECtN partials) — each of
//     which changes only through an event that wakes r — and state shared
//     beyond r whose every change is followed by Network.WakeGroup for
//     r's group before the next route phase (ECtN's combined arrays);
//   - it must not read the clock (Network.Now, Router.LinkBusy): time
//     passing wakes nobody.
//
// A call that draws from r.RNG is exempt — the draw itself keeps the
// router in the route set for the next cycle — which is what lets the
// randomized mechanisms re-sample a blocked head every cycle exactly as
// before, and lets PB read, inside its one-time (always drawing) source
// decision, the occupancy of another router of its group: the owner of
// the minimal global link, whose credit count is PB's piggybacked
// saturation bit. That read is also shard-safe — a group never spans
// shards, and no occupancy moves during the route phase.
// The tests' visit-everything cycle (StepFullScan, export_test.go)
// ignores parking and is the oracle: TestParkingEquivalence pins every
// shipped mechanism against it, and CheckInvariants replays the decision
// of every parked head.
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
// maintain their state incrementally (dirty-group ECtN combines):
// CheckState cross-checks that state against a fresh full recompute.
// Network.CheckInvariants calls it whenever the algorithm implements it,
// so every invariant sweep in the test suite also audits the incremental
// bookkeeping.
type StateChecker interface {
	CheckState(n *Network) error
}

// NopHooks provides no-op implementations of every Algorithm method
// except Name and Route, for embedding in concrete policies, together
// with the CycleHorizon a no-op BeginCycle implies.
type NopHooks struct{}

// Attach implements Algorithm.
func (NopHooks) Attach(*Network) {}

// BeginCycle implements Algorithm.
func (NopHooks) BeginCycle(*Network) {}

// NextAlgCycle implements CycleHorizon for the BeginCycle above: a body
// that does nothing has no pending cycle. Override one, override both —
// a policy with its own BeginCycle that kept this answer would have its
// periodic work elided.
func (NopHooks) NextAlgCycle(*Network) (int64, bool) { return NoPendingCycle, true }

// OnArrive implements Algorithm.
func (NopHooks) OnArrive(*Router, *Packet, int, int) {}

// OnHead implements Algorithm.
func (NopHooks) OnHead(*Router, *Packet, int, int) {}

// OnGrant implements Algorithm.
func (NopHooks) OnGrant(*Router, *Packet, int, int, int, int) {}

// OnDequeue implements Algorithm.
func (NopHooks) OnDequeue(*Router, *Packet, int, int) {}

// --- decision helpers shared by the routing policies and the fault escape ---

// LocalVCBase positions local hops on the ascending-VC ladder by path
// stage: source-group hops use class 0; hops after the first global hop
// start at class 1; hops after a second global hop (Valiant-style paths)
// start at class 3, above every intermediate-group class. The per-packet
// VC index is then base + local hops already taken in the current group
// — the Dragonfly deadlock-avoidance scheme of Kim et al. as implemented
// in FOGSim. The ladder is not acyclic as taken, faults off included
// (TestChannelDependencyAcyclic): at three local VCs class 3 is capped to
// VC 2, which an intermediate-group local misroute takes before its
// second global hop. VAL and PB draw no intermediate in the source group
// (doc.go, "Valiant intermediates"), which would put a second
// source-group hop on VC 1, the class after the first global hop.
func LocalVCBase(globalHops int8) int {
	switch globalHops {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return 3
	}
}

// LadderVC returns the VC to request on output `out` under the
// ascending-VC discipline, capped at the port's VC count. With faults off
// the misrouting policies of package routing reach the cap only on a
// path's final, ejection-bound hop; with faults on, the fault escape
// (faultAdjust) and the later hops of a packet it detoured reach it too.
// A capped hop shares its VC with hops that are not final, so the cap
// closes dependency cycles (TestChannelDependencyAcyclic).
func (r *Router) LadderVC(p *Packet, out int) int {
	var vc int
	switch r.out[out].kind {
	case Local:
		vc = LocalVCBase(p.GlobalHops) + int(p.LocalHopsGroup)
	case Global:
		vc = int(p.GlobalHops)
	default:
		return 0 // ejection channels have a single lane
	}
	if maxVC := int(r.out[out].ncred) - 1; vc > maxVC {
		vc = maxVC
	}
	return vc
}

// PickPort reservoir-samples one live output port of r among the n ports
// starting at `first`, skipping `exclude` (-1 excludes none) and every
// port `eligible` rejects (nil accepts all). It draws one
// r.RNG.Intn(count) per surviving candidate, in ascending port order —
// the draw sequence every randomized decision and the goldens depend on.
// ok=false when no candidate qualifies.
func (r *Router) PickPort(first, n, exclude int, eligible func(port int) bool) (int, bool) {
	pick, count := -1, 0
	for port := first; port < first+n; port++ {
		if port == exclude || r.out[port].dead || (eligible != nil && !eligible(port)) {
			continue
		}
		count++
		if r.RNG.Intn(count) == 0 {
			pick = port
		}
	}
	return pick, pick >= 0
}
