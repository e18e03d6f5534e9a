package router

import "fmt"

// The audits: each recomputes from scratch what the engine keeps
// incrementally and reports the first disagreement. None runs on the
// simulation path; tests call CheckInvariants between Steps.

// CheckInvariants validates credit/buffer accounting across the whole
// network plus packet conservation, and cross-checks any incremental
// algorithm state (StateChecker). Tests call it liberally; it is not
// on the simulation fast path. It must be called between Steps (the
// network is quiescent then, at any worker count); after a parallel
// cycle it additionally verifies that every cross-shard mailbox was
// drained at the cycle barrier.
func (n *Network) CheckInvariants() error {
	for _, r := range n.Routers {
		if err := r.checkInvariants(); err != nil {
			return err
		}
	}
	if sc, ok := n.Alg.(StateChecker); ok {
		if err := sc.CheckState(n); err != nil {
			return err
		}
	}
	if n.InFlight < 0 {
		return fmt.Errorf("router: negative in-flight count %d", n.InFlight)
	}
	for i := range n.nics {
		if n.nics[i].len() > 0 {
			sh := n.Routers[n.Topo.RouterOfNode(i)].shard
			if !sh.nicActive.has(int32(i)) {
				return fmt.Errorf("router: NIC %d has backlog %d but is not in shard %d's NIC set", i, n.nics[i].len(), sh.id)
			}
		}
	}
	for s := range n.shards {
		sh := &n.shards[s]
		// Every chunk of the shard's pools is on one queue or pooled.
		held := 0
		for b := range sh.cal {
			held += sh.cal[b].chunksHeld()
		}
		if err := checkPool(fmt.Sprintf("shard %d calendar", s), &sh.calPool, held); err != nil {
			return err
		}
		held = 0
		for i := sh.nodeLo; i < sh.nodeHi; i++ {
			held += n.nics[i].q.chunksHeld()
		}
		if err := checkPool(fmt.Sprintf("shard %d NIC", s), &sh.nicPool, held); err != nil {
			return err
		}
		if len(sh.delivered) != 0 {
			return fmt.Errorf("router: shard %d holds %d unreplayed deliveries between cycles", s, len(sh.delivered))
		}
		for t, mb := range sh.outbox {
			if len(mb) != 0 {
				return fmt.Errorf("router: mailbox %d->%d holds %d undrained events between cycles", s, t, len(mb))
			}
		}
	}
	// The notices are in due order, and none is overdue: a notice due at
	// an earlier cycle was delivered at that cycle's barrier.
	due := n.now
	for run := range n.notices.runs() {
		for _, nt := range run {
			if nt.at < due {
				return fmt.Errorf("router: congestion notice for node %d due at cycle %d, behind cycle %d", nt.node, nt.at, due)
			}
			due = nt.at
		}
	}
	if err := checkPool("notice", &n.noticePool, n.notices.chunksHeld()); err != nil {
		return err
	}
	if err := n.checkPackets(); err != nil {
		return err
	}
	// Conservation: every generated packet is delivered, killed by a
	// fault, discarded as unroutable, or still in flight. The fault
	// counters are identically zero without a plan, reducing this to the
	// original generated = delivered + in-flight.
	if n.NumGenerated-n.NumDelivered-n.NumDropped-n.NumUnroutable != uint64(n.InFlight) {
		return fmt.Errorf("router: conservation violated: generated %d - delivered %d - dropped %d - unroutable %d != in-flight %d",
			n.NumGenerated, n.NumDelivered, n.NumDropped, n.NumUnroutable, n.InFlight)
	}
	if n.faults != nil {
		if err := n.checkFaultState(); err != nil {
			return err
		}
	}
	return nil
}

// checkInvariants verifies credit and buffer accounting; used by tests.
func (r *Router) checkInvariants() error {
	outCap := int32(r.net.Cfg.BufOut)
	for port := range r.out {
		o := &r.out[port]
		if o.outFree < 0 || o.outFree > outCap {
			return fmt.Errorf("router %d out %d: outFree %d of cap %d", r.ID, port, o.outFree, outCap)
		}
		// The class's credit cap bounds each counter; the incremental
		// occupancy equals a fresh recompute.
		vcCap := r.class(port).vcCap
		occ := outCap - o.outFree
		for v := range int(o.ncred) {
			c := *r.cred(port, v)
			if c < 0 || c > vcCap {
				return fmt.Errorf("router %d out %d vc %d: credits %d of cap %d", r.ID, port, v, c, vcCap)
			}
			occ += vcCap - c
		}
		if occ != o.occ {
			return fmt.Errorf("router %d out %d: incremental occupancy %d but recompute %d", r.ID, port, o.occ, occ)
		}
	}
	// The head table's bookkeeping, slot by slot (the packet ledger walks
	// the queues behind the heads).
	unrouted, grantable := 0, 0
	for slot := range r.vqs {
		port, v := int(r.net.slotPort[slot]), int(r.net.slotVC[slot])
		if int(r.in[port].slot0)+v != slot {
			return fmt.Errorf("router %d in %d vc %d: slot %d maps back elsewhere", r.ID, port, v, slot)
		}
		head := r.heads[slot]
		isUnrouted := r.unroutedHeads.has(int32(slot))
		switch {
		case isUnrouted && head == noPkt:
			return fmt.Errorf("router %d in %d vc %d: unrouted head on an empty queue", r.ID, port, v)
		case isUnrouted:
			unrouted++
		case head != noPkt && !r.net.pkt(head).HeadSeen:
			return fmt.Errorf("router %d in %d vc %d: head counts as granted but was never routed", r.ID, port, v)
		case r.req[slot].valid:
			return fmt.Errorf("router %d in %d vc %d: stored request %+v outlived its head's grant or departure", r.ID, port, v, r.req[slot])
		}
		// Between Steps credits have only fallen since the slot's last
		// routePhase, so every admissible request is still grantable.
		rq := r.req[slot]
		switch {
		case r.grantable.has(int32(slot)):
			grantable++
			if !isUnrouted || !rq.valid || !r.reqPorts.has(int32(port)) {
				return fmt.Errorf("router %d in %d vc %d: grantable, but unrouted %v, request %+v, port in reqPorts %v",
					r.ID, port, v, isUnrouted, rq, r.reqPorts.has(int32(port)))
			}
		case isUnrouted && rq.valid && r.CanAccept(int(rq.out), int(rq.vc)):
			return fmt.Errorf("router %d in %d vc %d: request %+v is admissible but not grantable", r.ID, port, v, rq)
		}
	}
	if r.unroutedHeads.count != unrouted {
		return fmt.Errorf("router %d: unrouted-head count %d but %d bits set", r.ID, r.unroutedHeads.count, unrouted)
	}
	if r.grantable.count != grantable {
		return fmt.Errorf("router %d: grantable count %d but %d bits set", r.ID, r.grantable.count, grantable)
	}
	// A router with routable work must be on the route set's radar, or
	// parked: in-set flags are cleared only when the last unrouted head
	// goes or when the router parks.
	inSet := r.shard.routeActive.has(int32(r.ID))
	if unrouted > 0 && !inSet && !r.parked {
		return fmt.Errorf("router %d: %d unrouted heads but neither in route set nor parked", r.ID, unrouted)
	}
	if r.parked {
		if unrouted == 0 || inSet {
			return fmt.Errorf("router %d: parked with %d unrouted heads, in route set %v", r.ID, unrouted, inSet)
		}
		if err := r.checkParked(); err != nil {
			return err
		}
	}
	for port := range r.out {
		if staged := r.out[port].q.len(); (staged > 0) != r.stagedPorts.has(int32(port)) {
			return fmt.Errorf("router %d out %d: %d staged packets, on stagedPorts %v", r.ID, port, staged, r.stagedPorts.has(int32(port)))
		}
	}
	if r.stagedPorts.count > 0 && !r.shard.linkActive.has(int32(r.ID)) {
		return fmt.Errorf("router %d: %d ports with staged packets but not in link set", r.ID, r.stagedPorts.count)
	}
	return nil
}

// checkParked audits a parked router against the parking rule: no head
// holds a request the allocator could grant, and a fresh routing
// decision on a copy of each head reproduces the stored request without
// touching the router's random stream or flagging a kill. A failure
// means a wake is missing from some mutation point, or an algorithm
// breaks the Route contract.
func (r *Router) checkParked() error {
	alg := r.net.Alg
	faults := r.net.faults != nil
	rng0 := *r.RNG
	kills0 := len(r.shard.pendingKills)
	var cp Packet // the replayed decision's copy of the head, one per sweep
	for wi, w := range r.unroutedHeads.scan() {
		for ; w != 0; w &= w - 1 {
			slot := r.unroutedHeads.idAt(wi, w)
			p, stored := r.net.pkt(r.heads[slot]), r.req[slot]
			port, vc := int(r.net.slotPort[slot]), int(r.net.slotVC[slot])
			if !p.HeadSeen {
				return fmt.Errorf("router %d in %d vc %d: parked with a head whose OnHead never fired", r.ID, port, vc)
			}
			if stored.valid && r.CanAccept(int(stored.out), int(stored.vc)) {
				return fmt.Errorf("router %d in %d vc %d: parked but its request %+v is grantable", r.ID, port, vc, stored)
			}
			cp = *p
			req, escape := r.decide(alg, faults, &cp, port, vc)
			drew, killed := *r.RNG != rng0, len(r.shard.pendingKills) != kills0
			*r.RNG = rng0
			r.shard.pendingKills = r.shard.pendingKills[:kills0]
			if drew || killed {
				return fmt.Errorf("router %d in %d vc %d: parked but a fresh decision drew a random number (%v) or flagged a kill (%v)",
					r.ID, port, vc, drew, killed)
			}
			if fresh := newHeadReq(req, escape); fresh != stored {
				return fmt.Errorf("router %d in %d vc %d: parked with stored request %+v but a fresh decision gives %+v", r.ID, port, vc, stored, fresh)
			}
		}
	}
	return nil
}

// checkFaultState audits the engine's incremental liveness state against
// a from-scratch replay of the applied plan prefix: per-port link flags,
// effective deadness, per-router down flags, and the component map.
// CheckInvariants calls it whenever a plan is active.
func (n *Network) checkFaultState() error {
	f := n.faults
	down := make([]bool, len(n.Routers))
	type linkKey struct {
		router int32
		port   int16
	}
	failed := make(map[linkKey]bool)
	for _, ev := range f.events[:f.next] {
		switch ev.Kind {
		case LinkDown, LinkUp:
			peer, peerPort := n.Topo.Neighbor(int(ev.Router), int(ev.Port))
			v := ev.Kind == LinkDown
			failed[linkKey{ev.Router, ev.Port}] = v
			failed[linkKey{int32(peer), int16(peerPort)}] = v
		case RouterDown:
			down[ev.Router] = true
		case RouterUp:
			down[ev.Router] = false
		}
	}
	firstLink := n.Topo.FirstLocalPort()
	for _, r := range n.Routers {
		if r.down != down[r.ID] {
			return fmt.Errorf("router %d: down flag %v but plan prefix says %v", r.ID, r.down, down[r.ID])
		}
		for port := range r.out {
			o := &r.out[port]
			if port < firstLink {
				if o.linkFailed || o.dead {
					return fmt.Errorf("router %d ejection %d: marked failed/dead", r.ID, port)
				}
				continue
			}
			wantFailed := failed[linkKey{int32(r.ID), int16(port)}]
			if o.linkFailed != wantFailed {
				return fmt.Errorf("router %d port %d: link-failed flag %v but plan prefix says %v",
					r.ID, port, o.linkFailed, wantFailed)
			}
			wantDead := wantFailed || down[r.ID] || down[o.peerRouter]
			if o.dead != wantDead {
				return fmt.Errorf("router %d port %d: dead flag %v but liveness recompute says %v",
					r.ID, port, o.dead, wantDead)
			}
		}
	}
	fresh := make([]int32, len(n.Routers))
	n.computeComponentsInto(fresh)
	for i := range fresh {
		if fresh[i] != f.comp[i] {
			return fmt.Errorf("router %d: component label %d but recompute says %d", i, f.comp[i], fresh[i])
		}
	}
	if len(f.killed) != 0 {
		return fmt.Errorf("router: fault engine holds %d killed packets between cycles", len(f.killed))
	}
	return nil
}

// checkQueue walks head slot `slot`'s VC queue from its head in the head
// table, at most slotCap packets, handing visit each packet's place in
// the queue and its ref, and checks that the chain holds the queue's n
// packets and ends at its tail (noPkt for an empty queue).
func (r *Router) checkQueue(slot int, visit func(i int, ref pktRef) error) error {
	n, q, capacity := r.net, &r.vqs[slot], int(r.net.slotCap[slot])
	k, last := 0, noPkt
	for ref := r.heads[slot]; ref != noPkt; ref = n.pkt(ref).next {
		if k == capacity {
			return fmt.Errorf("the chain from head %d runs past the capacity of %d packets", r.heads[slot], capacity)
		}
		if ref>>packetShift == 0 || int(ref>>packetShift) >= len(n.pkts) {
			return fmt.Errorf("the chain from head %d reaches packet ref %d, which resolves to no chunk", r.heads[slot], ref)
		}
		if err := visit(k, ref); err != nil {
			return err
		}
		k, last = k+1, ref
	}
	if k != int(q.n) || last != q.tail {
		return fmt.Errorf("the chain from head %d holds %d packets and ends at %d, but the queue counts %d with tail %d",
			r.heads[slot], k, last, q.n, q.tail)
	}
	return nil
}

// The packet ledger's states of a ref (checkPackets).
const (
	refUnseen uint8 = iota
	refLive
	refFree
	refFresh
)

var refStates = [...]string{"nowhere", "live", "on its freelist", "in its fresh reserve"}

// checkPackets is the packet ledger. Every ref of every chunk of the
// packet table is in exactly one state: live, at exactly one place where
// the packet is — an input VC's chain (checkQueue) other than a granted
// head, an output stage entry, a head-arrival, pipeline or delivery event
// on a calendar or in a mailbox, a delivery or kill list — on its shard's
// freelist once, or in its shard's fresh reserve. The other mentions of a
// packet must name a live one: a granted head, whose tail still streams
// out of its queue, with exactly one tail-leave event, and a pending kill.
// Per shard, the packets made — its chunks' packets less its fresh
// reserve — are its freelist plus its live packets, a live packet counting
// for the shard of its source node, which made it (newPacket) and gets it
// back (recycle). Credit and output-free events carry no packet.
func (n *Network) checkPackets() error {
	l := packetLedger{state: make([]uint8, len(n.pkts)<<packetShift), slots: len(n.slotPort), ports: n.Routers[0].in}
	l.granted = make([]pktRef, len(n.Routers)*l.slots)
	for _, r := range n.Routers {
		for slot := range r.vqs {
			err := r.checkQueue(slot, func(i int, ref pktRef) error {
				if i == 0 && r.slotGranted(slot) {
					l.granted[r.ID*l.slots+slot] = ref
					l.mentions = append(l.mentions, ref)
					l.heads++
					return nil
				}
				if err := l.put(ref, refLive); err != nil {
					return fmt.Errorf("packet %d: %w", i, err)
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("router: router %d's queue of slot %d: %w", r.ID, slot, err)
			}
		}
		if r.stages == nil {
			continue
		}
		for port := range r.out {
			q, buf := &r.out[port].q, r.stageRing(port)
			for i := range q.len() {
				if err := l.put(q.at(buf, i).pkt, refLive); err != nil {
					return fmt.Errorf("router: router %d's output stage %d, entry %d: %w", r.ID, port, i, err)
				}
			}
		}
	}
	for s := range n.shards {
		sh := &n.shards[s]
		for b := range sh.cal {
			if sh.cal[b].n == 0 {
				continue
			}
			for run := range sh.cal[b].runs() {
				for i := range run {
					if err := l.event(&run[i]); err != nil {
						return fmt.Errorf("router: shard %d bucket %d: %w", s, b, err)
					}
				}
			}
		}
		for t := range sh.outbox {
			for i := range sh.outbox[t] {
				if err := l.event(&sh.outbox[t][i].ev); err != nil {
					return fmt.Errorf("router: mailbox %d->%d: %w", s, t, err)
				}
			}
		}
		for _, ref := range sh.delivered {
			if err := l.put(ref, refLive); err != nil {
				return fmt.Errorf("router: shard %d's delivery list: %w", s, err)
			}
		}
		for i := range sh.pendingKills {
			l.mentions = append(l.mentions, sh.pendingKills[i].pkt)
		}
	}
	if l.heads != 0 {
		return fmt.Errorf("router: %d granted heads have no tail-leave event", l.heads)
	}
	if n.faults != nil {
		for _, ref := range n.faults.killed {
			if err := l.put(ref, refLive); err != nil {
				return fmt.Errorf("router: the fault engine's victim set: %w", err)
			}
		}
	}
	for _, ref := range l.mentions {
		if int(ref) >= len(l.state) || l.state[ref] != refLive {
			return fmt.Errorf("router: packet ref %d is a granted head or a pending kill but not live", ref)
		}
	}
	made, chunks := make([]int, len(n.shards)), 0
	for s := range n.shards {
		sh := &n.shards[s]
		for _, ref := range sh.freePkts {
			if err := l.put(ref, refFree); err != nil {
				return fmt.Errorf("router: shard %d's freelist: %w", s, err)
			}
		}
		for ref := sh.fresh; ref < sh.freshEnd; ref++ {
			if err := l.put(ref, refFresh); err != nil {
				return fmt.Errorf("router: shard %d's fresh reserve: %w", s, err)
			}
		}
		made[s] = sh.chunks*packetChunk - int(sh.freshEnd-sh.fresh) - len(sh.freePkts)
		chunks += sh.chunks
	}
	if chunks != len(n.pkts)-1 {
		return fmt.Errorf("router: the shards added %d chunks to a %d-chunk packet table", chunks, len(n.pkts)-1)
	}
	for ref := pktRef(packetChunk); int(ref) < len(l.state); ref++ {
		switch l.state[ref] {
		case refUnseen:
			return fmt.Errorf("router: packet ref %d is nowhere: not live, not on a freelist, not in a reserve", ref)
		case refLive:
			// The shard owning the source node: shards own ascending node blocks.
			s, src := 0, n.pkt(ref).Src
			for src >= n.shards[s].nodeHi {
				s++
			}
			made[s]--
		}
	}
	for s, left := range made {
		if left != 0 {
			sh := &n.shards[s]
			total := sh.chunks*packetChunk - int(sh.freshEnd-sh.fresh)
			return fmt.Errorf("router: shard %d made %d packets (%d chunks, %d fresh refs) but holds %d on its freelist and %d live",
				s, total, sh.chunks, sh.freshEnd-sh.fresh, len(sh.freePkts), total-len(sh.freePkts)-left)
		}
	}
	return nil
}

// packetLedger is checkPackets' scratch: each ref's state, the granted
// heads by router and slot (router*slots + slot) until their tail-leave
// events are found, and the refs that must turn out live.
type packetLedger struct {
	state    []uint8
	granted  []pktRef
	slots    int
	ports    []inPort // every router's input ports lay out its slots alike
	heads    int      // granted heads whose tail-leave event is still unfound
	mentions []pktRef
}

// put enters ref in state st. A ref that resolves to no chunk, or that
// already has a state, is an error.
func (l *packetLedger) put(ref pktRef, st uint8) error {
	if ref>>packetShift == 0 || int(ref) >= len(l.state) {
		return fmt.Errorf("packet ref %d resolves to no chunk of the %d-chunk table", ref, len(l.state)>>packetShift-1)
	}
	if prev := l.state[ref]; prev != refUnseen {
		return fmt.Errorf("packet ref %d is already %s", ref, refStates[prev])
	}
	l.state[ref] = st
	return nil
}

// event enters the packet of one calendar or mailbox event.
func (l *packetLedger) event(ev *event) error {
	switch ev.kind {
	case evCredit, evOutFree:
		if ev.pkt != noPkt {
			return fmt.Errorf("event kind %d for router %d carries packet ref %d", ev.kind, ev.router, ev.pkt)
		}
	case evTailLeave:
		key := int(ev.router)*l.slots + int(l.ports[ev.port].slot0) + int(ev.vc)
		if head := l.granted[key]; head == noPkt || head != ev.pkt {
			return fmt.Errorf("tail-leave of packet ref %d at router %d in %d vc %d, whose granted head is %d",
				ev.pkt, ev.router, ev.port, ev.vc, head)
		}
		l.granted[key] = noPkt
		l.heads--
	default:
		if err := l.put(ev.pkt, refLive); err != nil {
			return fmt.Errorf("event kind %d for router %d port %d: %w", ev.kind, ev.router, ev.port, err)
		}
	}
	return nil
}

// checkPool reports a pool whose allocated chunks are not exactly the
// held ones on its queues plus the pooled ones.
func checkPool[T any](name string, p *chunkPool[T], held int) error {
	if free := p.pooled(); held+free != p.chunks {
		return fmt.Errorf("router: %s pool: %d chunks on queues and %d pooled, allocated %d", name, held, free, p.chunks)
	}
	return nil
}
