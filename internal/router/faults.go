package router

import (
	"cmp"
	"slices"

	"cbar/internal/topology"
)

// The fault engine applies the plan (faultplan.go) at Step's sequential
// point, before Alg.BeginCycle; doc.go's "Fault model" says what a fault
// does and what it does not guarantee. A kill reverses exactly the
// accounting its location still holds. Routing only flags the heads it
// cannot route (faultAdjust, router.go); they are killed here.

// faultState is the network's fault-injection engine; nil when the plan
// is empty.
type faultState struct {
	cfg    FaultConfig
	events []FaultEvent // full expanded plan, ascending cycle
	next   int          // cursor: events[:next] have been applied

	// comp labels each router's component over live links (-1: down),
	// in ascending first-router order, the same at any worker count.
	comp []int32

	// Kill machinery scratch, reused across applications: the victims of
	// the application in progress (each also marked Packet.killed).
	killed   []pktRef
	bfsQueue []int32
}

func newFaultState(fc FaultConfig, t *topology.Dragonfly) *faultState {
	return &faultState{
		cfg:    fc,
		events: fc.plan(t),
		comp:   make([]int32, t.Routers),
	}
}

// FaultsActive reports whether a fault plan is scheduled on this
// network; routing algorithms gate their fault-aware checks on it.
func (n *Network) FaultsActive() bool { return n.faults != nil }

// Reachable reports whether routers a and b are connected through live
// links and routers. Always true without a fault plan.
func (n *Network) Reachable(a, b int) bool { return n.reachableRouters(int32(a), int32(b)) }

// GlobalLinkAlive reports whether global link l of group g is up at its
// owning router. Always true without a fault plan. PB reads it as it
// reads a saturation flag: a dead channel is advertised group-wide
// exactly as a saturated one is.
func (n *Network) GlobalLinkAlive(g, l int) bool {
	if n.faults == nil {
		return true
	}
	t := n.Topo
	r := n.groups[g][l/t.H]
	return !r.down && !r.out[t.GlobalPort(l%t.H)].dead
}

// reachableRouters reports whether routers a and b are in the same live
// component. Always true without a fault plan.
func (n *Network) reachableRouters(a, b int32) bool {
	f := n.faults
	if f == nil {
		return true
	}
	ca := f.comp[a]
	return ca >= 0 && ca == f.comp[b]
}

// faultsPending reports whether the next sequential point has fault work
// to do: a due plan event or a pending routing-flagged kill. The
// parallel stepper's quiet path must not skip such a cycle.
func (n *Network) faultsPending() bool {
	f := n.faults
	if f == nil {
		return false
	}
	if f.next < len(f.events) && f.events[f.next].Cycle <= n.now {
		return true
	}
	for s := range n.shards {
		if len(n.shards[s].pendingKills) > 0 {
			return true
		}
	}
	return false
}

// applyFaults applies the due plan events in order, refreshes the
// component map and resolves the kills the previous cycle's routing
// flagged, shard by shard: ascending router order, the order a
// sequential route scan flagged them in.
func (n *Network) applyFaults() {
	f := n.faults
	changed := false
	for f.next < len(f.events) && f.events[f.next].Cycle <= n.now {
		n.applyFaultEvent(f.events[f.next])
		f.next++
		changed = true
	}
	if changed {
		n.computeComponentsInto(f.comp)
		// An event moves liveness, reachability, credits and (through
		// the kills' OnDequeue) contention far from the failed
		// component: every parked router gets a fresh visit.
		for g := range n.groups {
			n.WakeGroup(g)
		}
	}
	for s := range n.shards {
		sh := &n.shards[s]
		for i := range sh.pendingKills {
			n.resolvePendingKill(&sh.pendingKills[i])
		}
		sh.pendingKills = sh.pendingKills[:0]
	}
}

// applyFaultEvent applies one plan event: liveness flags, kills with
// their accounting reversed, and the victims counted.
func (n *Network) applyFaultEvent(ev FaultEvent) {
	switch ev.Kind {
	case LinkDown, LinkUp:
		r := n.Routers[ev.Router]
		o := &r.out[ev.Port]
		o.linkFailed = ev.Kind == LinkDown
		n.Routers[o.peerRouter].out[o.peerPort].linkFailed = o.linkFailed
		n.refreshLink(r, int(ev.Port))
	case RouterDown, RouterUp:
		rt := n.Routers[ev.Router]
		if rt.down == (ev.Kind == RouterDown) {
			return
		}
		rt.down = !rt.down
		if rt.down {
			n.killRouterContents(rt)
		}
		for port := n.Topo.FirstLocalPort(); port < len(rt.out); port++ {
			n.refreshLink(rt, port)
		}
	}
	if ev.Kind == LinkDown || ev.Kind == RouterDown {
		n.sweepFaultVictims()
	}
	n.finalizeFaultVictims()
}

// refreshPortDead recomputes a non-injection output port's dead flag from
// its link flag and both endpoint routers, draining the port's staged
// output queue when it just died.
func (n *Network) refreshPortDead(r *Router, port int) {
	o := &r.out[port]
	if o.kind == Injection {
		return
	}
	dead := o.linkFailed || r.down || n.Routers[o.peerRouter].down
	if dead == o.dead {
		return
	}
	o.dead = dead
	if dead {
		n.killStagedQueue(r, port)
	}
}

// refreshLink refreshes the liveness of the link on r's output port, at
// r's end and then at the far end the port was built with.
func (n *Network) refreshLink(r *Router, port int) {
	o := &r.out[port]
	n.refreshPortDead(r, port)
	n.refreshPortDead(n.Routers[o.peerRouter], int(o.peerPort))
}

// killRouterContents kills every packet resident in a freshly down
// router: its nodes' NIC backlogs, its input queues and its staged
// ejection queues. Its transit output queues die with their links
// (refreshPortDead); pipeline and wire packets in the calendar sweep.
func (n *Network) killRouterContents(rt *Router) {
	t := n.Topo
	for c := 0; c < t.P; c++ {
		node := t.NodeID(rt.ID, c)
		q := &n.nics[node].q
		n.reserve(rt.shard, q.len())
		for q.len() > 0 {
			n.faults.noteVictim(rt.shard.newPacket(n, node, q.pop(&rt.shard.nicPool)))
		}
	}
	for slot := range rt.vqs {
		for !rt.vqs[slot].empty() {
			n.killQueued(rt, int(n.slotPort[slot]), int(n.slotVC[slot]))
		}
	}
	for port := 0; port < t.P; port++ {
		n.killStagedQueue(rt, port)
	}
}

// killStagedQueue drains the staged output queue of (r, port), reversing
// each entry's grant. A granted packet is in exactly one of the pipeline,
// the staged queue or the wire, so its grant is reversed at most once.
func (n *Network) killStagedQueue(r *Router, port int) {
	o := &r.out[port]
	for o.q.len() > 0 {
		e := o.q.pop(r.stageRing(port))
		n.reverseGrant(r, port, e.vc, true, n.pkt(e.pkt))
	}
	r.stagedPorts.drop(int32(port))
}

// reverseGrant kills granted packet p, giving back what its grant still
// reserves at r's output port: the credit on downstream VC vc and, with
// outBuf, its output-buffer space.
func (n *Network) reverseGrant(r *Router, port int, vc int8, outBuf bool, p *Packet) {
	r.unreserve(port, vc, outBuf)
	n.killGranted(r, p)
}

// killGranted adds granted packet p to the victim set and removes its
// tail from r's input queues if it is still streaming out there: with
// Speedup 1 a packet can be staged, or on the wire, before its tail left.
func (n *Network) killGranted(r *Router, p *Packet) {
	n.faults.noteVictim(p)
	for slot, head := range r.heads {
		if head == p.ref {
			n.killQueued(r, int(n.slotPort[slot]), int(n.slotVC[slot]))
			return
		}
	}
}

// killQueued kills the head of r's input VC (port, vc): the dequeue a
// tail departure performs, and the upstream credit returned at once.
// During sweepFaultVictims the credit may land in a bucket being scanned:
// the scan walks only the events a bucket held when it got there and
// ignores credits, and the filter keeps order, so each bucket ends with
// its survivors followed by the kills' credits in kill order.
func (n *Network) killQueued(r *Router, port, vc int) {
	p := r.dequeue(port, vc)
	n.faults.noteVictim(p)
	n.returnCredit(nil, &r.in[port], int8(vc))
}

// sweepFaultVictims kills the calendar's packets committed to a dead
// direction, then removes every event that carries a victim. The scan
// (faultScanEvent) reverses what each location holds: a pipeline
// completion toward a dead port, its grant; a head arrival over a dead
// link, the downstream credit (its output space comes back through the
// pending evOutFree); an ejecting packet of a down router, nothing. The
// filter then drops every victim's events, the tail-leaves killGranted
// already performed included; packet-free events (credits, output
// frees) survive, which is how credits owed across a dead link settle.
func (n *Network) sweepFaultVictims() {
	for s := range n.shards {
		sh := &n.shards[s]
		for b := range sh.cal {
			for run := range sh.cal[b].runs() {
				for i := range run {
					n.faultScanEvent(&run[i])
				}
			}
		}
		for t := range sh.outbox {
			for i := range sh.outbox[t] {
				n.faultScanEvent(&sh.outbox[t][i].ev)
			}
		}
	}
	if len(n.faults.killed) == 0 {
		return
	}
	for s := range n.shards {
		sh := &n.shards[s]
		for b := range sh.cal {
			n.filterBucket(sh, int64(b))
		}
		for t := range sh.outbox {
			sh.outbox[t] = slices.DeleteFunc(sh.outbox[t], func(te timedEvent) bool { return n.isVictim(&te.ev) })
		}
	}
}

// faultScanEvent is sweepFaultVictims' scan of one event.
func (n *Network) faultScanEvent(ev *event) {
	switch ev.kind {
	case evPipeDone:
		u := n.Routers[ev.router]
		if u.down || u.out[ev.port].dead {
			n.reverseGrant(u, int(ev.port), ev.vc, true, n.pkt(ev.pkt))
		}
	case evHeadArrive:
		ip := &n.Routers[ev.router].in[ev.port]
		u := n.Routers[ip.upRouter]
		if u.out[ip.upPort].dead {
			n.reverseGrant(u, int(ip.upPort), ev.vc, false, n.pkt(ev.pkt))
		}
	case evDeliver:
		u := n.Routers[ev.router]
		if u.down {
			n.killGranted(u, n.pkt(ev.pkt))
		}
	}
}

// noteVictim adds p to the victim set, once.
func (f *faultState) noteVictim(p *Packet) {
	if p.killed {
		return
	}
	p.killed = true
	f.killed = append(f.killed, p.ref)
}

// finalizeFaultVictims retires one application's victims in packet-ID
// order: discovery order depends on the sharding, ID order does not, so
// the OnDrop sequence is the same at every worker count.
func (n *Network) finalizeFaultVictims() {
	f := n.faults
	if len(f.killed) == 0 {
		return
	}
	slices.SortFunc(f.killed, n.byPacketID)
	for _, ref := range f.killed {
		n.retire(n.pkt(ref), false)
	}
	f.killed = f.killed[:0]
}

// byPacketID orders packet refs by their packets' IDs. Unlike sort.Slice,
// sorting with it allocates nothing: the method value does not escape.
func (n *Network) byPacketID(a, b pktRef) int { return cmp.Compare(n.pkt(a).ID, n.pkt(b).ID) }

// resolvePendingKill kills a routing-flagged head, unless it is no longer
// the ungranted head it was flagged as (a router death in the same batch
// drains it) or, for an unreachable destination, a repair restored the
// path.
func (n *Network) resolvePendingKill(pk *pendingKill) {
	r := n.Routers[pk.router]
	slot := int(r.in[pk.port].slot0) + int(pk.vc)
	if r.heads[slot] != pk.pkt || r.slotGranted(slot) ||
		pk.reason == killUnreachable && n.reachableRouters(pk.router, n.pkt(pk.pkt).DstRouter) {
		return
	}
	p := n.pkt(pk.pkt)
	r.dequeue(int(pk.port), int(pk.vc))
	n.returnCredit(nil, &r.in[pk.port], pk.vc)
	n.retire(p, pk.reason == killUnreachable)
}

// retire counts killed packet p out of the fabric and recycles it: as
// unroutable, or as dropped, which the OnDrop callback hears of.
func (n *Network) retire(p *Packet, unroutable bool) {
	n.InFlight--
	if unroutable {
		n.NumUnroutable++
	} else {
		n.NumDropped++
		if n.OnDrop != nil {
			n.OnDrop(p, n.now)
		}
	}
	n.recycle(p)
}

// computeComponentsInto labels the live routers' connected components
// over live links into dst (-1 for down routers), assigning labels in
// ascending first-router order.
func (n *Network) computeComponentsInto(dst []int32) {
	f := n.faults
	for i := range dst {
		dst[i] = -1
	}
	queue := f.bfsQueue[:0]
	label := int32(0)
	firstLink := n.Topo.FirstLocalPort()
	for start := range n.Routers {
		if dst[start] >= 0 || n.Routers[start].down {
			continue
		}
		dst[start] = label
		queue = append(queue, int32(start))
		for len(queue) > 0 {
			rid := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			r := n.Routers[rid]
			for port := firstLink; port < len(r.out); port++ {
				o := &r.out[port]
				if o.dead {
					continue
				}
				if pr := o.peerRouter; dst[pr] < 0 && !n.Routers[pr].down {
					dst[pr] = label
					queue = append(queue, pr)
				}
			}
		}
		label++
	}
	f.bfsQueue = queue[:0]
}
