package router

import (
	"fmt"
	"math"

	"cbar/internal/core"
	"cbar/internal/rng"
)

// ejectionCredits is the effectively infinite credit pool of ejection
// channels (nodes always sink traffic).
const ejectionCredits = 1 << 30

// noMark is the mark threshold of an output port that never ECN-marks:
// the grant-time compare against it is never true.
const noMark = math.MaxInt32

// inPort is one input port: its nvc VCs plus its fixed upstream endpoint
// (for credit returns). Injection ports have no upstream router.
type inPort struct {
	kind   PortKind
	nvc    int8
	upPort int16
	// upRouter is -1 for injection ports.
	upRouter int32
	// slot0 is the head slot of VC 0: input VC (port, vc) is slot
	// slot0+vc of the router's head table (Router.heads) and of its VC
	// queues (Router.vqs), port-major.
	slot0 int16
}

// headReq is a head slot's stored allocation request, escape marking a
// fault-escape redirect (faults.go). routePhase rewrites it on every
// visit, grant and dequeue clear it, so a valid request is always that of
// the slot's present, ungranted head: the allocator need not look.
type headReq struct {
	out    int16
	vc     int8
	valid  bool
	escape bool
}

func newHeadReq(req Request, escape bool) headReq {
	return headReq{out: int16(req.Out), vc: int8(req.VC), valid: req.OK, escape: escape}
}

// outEntry is a packet staged in an output buffer with its downstream VC.
type outEntry struct {
	pkt *Packet
	vc  int8
}

// portClass is what every output port of one PortKind shares, fixed by
// the configuration (Network.classes).
type portClass struct {
	latency int64 // link latency, for data and credits
	// vcCap is a downstream VC's credit capacity in phits: the class's
	// input buffer, or ejectionCredits on an ejection channel's one lane.
	vcCap int32
	// occCap is the maximum of a port's occupancy: BufOut plus every
	// downstream VC's vcCap.
	occCap int32
	// markTh is the ECN mark threshold (congestion.go): a packet granted
	// through a port while its occupancy exceeds it carries a mark. It is
	// 70 % of occCap, or noMark — which
	// no occupancy exceeds — on a class that never marks: congestion
	// disabled, or ejection, whose occupancy cap is dominated by the
	// infinite ejection credit pool.
	markTh int32
}

func newPortClass(cfg *Config, kind PortKind) portClass {
	c := portClass{latency: int64(cfg.LatencyFor(kind)), vcCap: int32(cfg.BufFor(kind)), markTh: noMark}
	vcs := int32(cfg.VCsFor(kind))
	if kind == Injection {
		c.vcCap, vcs = ejectionCredits, 1
	}
	c.occCap = int32(cfg.BufOut) + vcs*c.vcCap
	if kind != Injection && cfg.Congestion.Enabled {
		c.markTh = c.occCap * 70 / 100
	}
	return c
}

// outPort is one output port: credit counters for the downstream input
// buffer, the output buffer and the link serialization state. What the
// port's class fixes is in Network.classes.
type outPort struct {
	kind       PortKind
	peerRouter int32 // -1 for ejection channels
	peerPort   int16

	credits []int32 // per downstream VC, phits; cut from the router's one credit array
	outFree int32

	// occ is the running occupancy estimate (staged output phits plus
	// outstanding downstream credits), maintained incrementally at the
	// three mutation points (grant, credit return, out-buffer free) so
	// Occupancy is O(1) instead of a per-call credit-array sum.
	occ int32

	// Fault liveness (faults.go): linkFailed records an explicit link
	// fault on this direction's cable; dead is the effective flag the
	// routing hot path reads — linkFailed, or either endpoint router
	// down. Both always false without a fault plan.
	linkFailed bool
	dead       bool

	q          fifo[outEntry] // output buffer FIFO
	linkFreeAt int64

	rrIn int // output-arbiter round-robin pointer

	// BusyCycles accumulates cycles the link spent serializing phits,
	// for utilization statistics.
	BusyCycles int64
}

func (o *outPort) qLen() int        { return o.q.len() }
func (o *outPort) qPush(e outEntry) { o.q.push(e) }
func (o *outPort) qPop() outEntry   { return o.q.pop() }

// Router is one simulated router: input VC buffers and the head table
// that summarises them for the route phase and the allocator, output
// ports with credits, the separable allocator state and the
// contention-counter banks consulted by the routing algorithms.
type Router struct {
	ID  int
	net *Network
	// shard is the network shard that owns this router: its calendar,
	// active sets and outgoing mailboxes. With one worker every
	// router shares the single shard.
	shard *netShard

	in  []inPort
	out []outPort

	// The input VC queues and the head table, indexed by head slot
	// (inPort.slot0 + vc). routePhase and allocate read the table instead
	// of ports × VCs × *Packet: each input VC's head packet (nil when
	// empty), the request the last routePhase stored for it, and the set
	// of slots whose head awaits a grant. enqueue, dequeue and grant keep
	// them in step, eagerly: no stale members, and a nonzero count means
	// work until r parks.
	vqs           []vcQueue
	heads         []*Packet
	req           []headReq
	unroutedHeads activeSet
	// grantable holds the slots the allocator may nominate: routePhase
	// sets a slot whose stored request CanAccept admits; grant, dequeue
	// and a later iteration's failed re-check drop it. Credits and output
	// space only fall between routePhase and the end of the allocation
	// iterations, so a slot outside it could not be granted.
	grantable activeSet

	// Contention is the per-output-port counter bank of §III-B. The
	// fabric allocates it for every router; only contention-based
	// algorithms update or read it.
	Contention *core.Counters

	// Ectn is the per-router ECtN state of §III-D (lazily allocated by
	// the ECtN algorithm's Attach).
	Ectn *core.ECtN

	// RNG is this router's private random stream (nonminimal port
	// selection).
	RNG *rng.PCG

	// down marks a failed router (faults.go): its ports are dead, its
	// queues were drained, Inject refuses its nodes.
	down bool
	// parked marks a router that left the route set with unrouted heads
	// still queued: its last route/allocate visit changed nothing and
	// nothing can change the next one until an event re-arms it (wake).
	// The heads keep their stored requests. See stepShard for the parking
	// rule and wake for the re-arm set.
	parked bool
	// parkable is the current cycle's verdict, valid between routePhase
	// and the end of the allocation iterations: routePhase sets it when
	// the visit fired no OnHead, drew no random number and flagged no
	// kill; a grant clears it.
	parkable bool
	// group is Topo.GroupOf(ID), asked once (it sits in the bools'
	// padding).
	group int32

	// The port sets, over [0, radix), visited ascending like the all-port
	// scans they replace. stagedPorts: output ports with staged packets,
	// joining at evPipeDone and leaving when their queue empties (link
	// phase, fault kill); its count is r's link work. reqPorts: input
	// ports with a grantable slot this cycle, left by a port that
	// nominates nothing. dirtyOut: output ports with candidates this
	// allocation iteration.
	stagedPorts activeSet
	reqPorts    activeSet
	dirtyOut    activeSet

	// allocator state and scratch
	rrVC []int8 // per input port: round-robin pointer over VCs
	s1   []int8 // per input port: stage-1 winning VC this iteration
	// cand holds each output port's nominating input ports as a bitset:
	// len(reqPorts.words) words per output, empty between iterations.
	cand []uint64
}

func newRouter(id int, net *Network) *Router {
	cfg := &net.Cfg
	topo := net.Topo
	radix := topo.Radix()
	slots := len(net.slotPort)
	// A router's VC queues, their rings and its credit counters are one
	// array per kind, cut port by port below; an ejection channel feeds
	// one lane where an injection port has VCsInjection.
	var ringLen int
	for _, port := range net.slotPort {
		ringLen += ringSlots(cfg.BufFor(portKind(topo, int(port))), cfg.PacketSize)
	}
	rings := make([]*Packet, ringLen)
	credits := make([]int32, slots-topo.P*(cfg.VCsInjection-1))
	// The two head-slot sets share one allocation.
	sw := (slots + 63) / 64
	slotWords := make([]uint64, 2*sw)
	r := &Router{
		ID:            id,
		net:           net,
		in:            make([]inPort, radix),
		out:           make([]outPort, radix),
		group:         int32(topo.GroupOf(id)),
		vqs:           make([]vcQueue, slots),
		heads:         make([]*Packet, slots),
		req:           make([]headReq, slots),
		unroutedHeads: activeSet{words: slotWords[:sw:sw]},
		grantable:     activeSet{words: slotWords[sw:]},
		Contention:    core.NewCounters(radix),
		RNG:           rng.New(net.seed, uint64(id)+1),
		stagedPorts:   newActiveSet(0, int32(radix)),
		reqPorts:      newActiveSet(0, int32(radix)),
		dirtyOut:      newActiveSet(0, int32(radix)),
		rrVC:          make([]int8, radix),
		s1:            make([]int8, radix),
		cand:          make([]uint64, radix*((radix+63)/64)),
	}
	slot := 0
	for port := 0; port < radix; port++ {
		kind := portKind(topo, port)
		vcN := cfg.VCsFor(kind)
		ring := ringSlots(cfg.BufFor(kind), cfg.PacketSize)
		ip, op := &r.in[port], &r.out[port]
		ip.kind, ip.nvc, ip.slot0 = kind, int8(vcN), int16(slot)
		for range vcN {
			r.vqs[slot].pkts, rings = rings[:ring:ring], rings[ring:]
			slot++
		}
		// The link's far end is both the upstream of the input side and
		// the downstream of the output side, and its input port has the
		// same class as ours; an ejection channel is a single bottomless
		// lane.
		op.kind = kind
		op.outFree = int32(cfg.BufOut)
		ip.upRouter, op.peerRouter = -1, -1
		dn := 1
		if kind != Injection {
			peer, peerPort := topo.Neighbor(id, port)
			ip.upRouter, ip.upPort = int32(peer), int16(peerPort)
			op.peerRouter, op.peerPort = int32(peer), int16(peerPort)
			dn = vcN
		}
		op.credits, credits = credits[:dn:dn], credits[dn:]
		for v := range op.credits {
			op.credits[v] = net.classes[kind].vcCap
		}
	}
	return r
}

// --- accessors used by routing algorithms and tests ---

// Net returns the owning network.
func (r *Router) Net() *Network { return r.net }

// Group returns the router's group, Topo.GroupOf(r.ID).
func (r *Router) Group() int { return int(r.group) }

// DstGroup returns Topo.GroupOfNode(p.Dst), memoised on the packet
// (newPacket fills it in; a hand-built Packet{Dst: x} computes it here).
func (r *Router) DstGroup(p *Packet) int {
	if p.dstGroup != 0 {
		return int(p.dstGroup) - 1
	}
	g := r.net.Topo.GroupOfNode(int(p.Dst))
	p.dstGroup = int16(g) + 1
	return g
}

// NumPorts returns the router radix.
func (r *Router) NumPorts() int { return len(r.out) }

// Kind returns the class of a port.
func (r *Router) Kind(port int) PortKind { return r.out[port].kind }

// VCs returns the number of VCs of input port `port`.
func (r *Router) VCs(port int) int { return int(r.in[port].nvc) }

// vq returns the queue of input VC (port, vc).
func (r *Router) vq(port, vc int) *vcQueue { return &r.vqs[int(r.in[port].slot0)+vc] }

// class returns what output `port` shares with its class.
func (r *Router) class(port int) *portClass { return &r.net.classes[r.out[port].kind] }

// OutVCs returns the number of downstream VCs reachable through output
// `port`.
func (r *Router) OutVCs(port int) int { return len(r.out[port].credits) }

// Credits returns the available credits (phits) for downstream VC vc of
// output port.
func (r *Router) Credits(port, vc int) int32 { return r.out[port].credits[vc] }

// OutFree returns the free space of the output buffer of `port`.
func (r *Router) OutFree(port int) int32 { return r.out[port].outFree }

// Occupancy estimates the phits queued at and beyond output `port`: the
// staged output buffer content plus the downstream buffer space not
// covered by credits (which includes phits and credits still in flight —
// exactly the credit-count estimate, with its round-trip uncertainty,
// that congestion-based mechanisms rely on, cf. §II-B). The value is a
// running counter maintained by occDelta at the mutation points, so the
// call is O(1).
func (r *Router) Occupancy(port int) int32 { return r.out[port].occ }

// OccupancyCap returns the maximum value Occupancy can reach for `port`:
// the output buffer plus all downstream credit capacity (a constant of
// the port's class). Relative (percentage) occupancy comparisons across
// port classes must normalize by it, since local and global ports have
// very different buffer depths.
func (r *Router) OccupancyCap(port int) int32 { return r.class(port).occCap }

// occDelta applies one mutation to the running occupancy of output
// `port`. It is the field's one writer, called from exactly the occupancy
// mutation points — grant (credits and output space reserved), credit
// return, output-buffer free — which is what keeps Occupancy O(1).
func (r *Router) occDelta(port int, delta int32) { r.out[port].occ += delta }

// MinimalOut returns the minimal output port toward p's destination from
// r. The port is memoised on the packet for its stay in the current
// input queue (resetQueueState clears it on every enqueue), so the
// topology's div/mod chain runs once per hop instead of once per
// re-evaluation and again at grant.
func (r *Router) MinimalOut(p *Packet) int {
	if p.minOut != 0 {
		return int(p.minOut) - 1
	}
	out := r.net.Topo.MinimalNextPort(r.ID, int(p.Dst))
	p.minOut = int16(out) + 1
	return out
}

// wake re-arms r for route/allocate service. It is the single re-arm
// point of the parking scheduler, called from every mutation that can
// change a routing decision at r or its admissibility:
//
//   - an event handled at r that touches what Route or CanAccept read:
//     evHeadArrive (new head, OnArrive), evTailLeave (next head exposed,
//     OnDequeue lowers contention counters), evCredit and evOutFree
//     (credits, output space, occupancy);
//   - a nicDrain push into one of r's injection VCs;
//   - a fault kill that pops one of r's queues, and — for every parked
//     router — any applied fault-plan event (liveness, reachability and
//     the accounting reversals are not confined to one router);
//   - a change to algorithm state shared beyond r: WakeGroup.
//
// evPipeDone and the link phase do not wake: the output stage's queue
// and link timer are read by neither Route nor the allocator.
//
// A router without unrouted heads has nothing to route and is never
// parked, so it stays off the set: whatever gives it a head calls wake
// after counting it.
func (r *Router) wake() {
	r.parked = false
	if r.unroutedHeads.count > 0 {
		r.shard.routeActive.add(int32(r.ID))
	}
}

// enqueue puts p at the tail of input VC (port, vc): the one place a
// packet enters an input queue, from the NIC (nicDrain) or off a link
// (evHeadArrive). It restarts the packet's per-queue and, on entering a
// new group, per-group state, enters it in the head table if the VC was
// empty, re-arms r and fires OnArrive.
func (r *Router) enqueue(p *Packet, port, vc int) {
	n := r.net
	p.resetQueueState(n.now + int64(n.size) - 1)
	if p.LastGroup != r.group {
		p.LastGroup = r.group
		p.LocalMisThisGroup = false
		p.LocalHopsGroup = 0
	}
	slot := int(r.in[port].slot0) + vc
	if r.vqs[slot].empty() {
		r.heads[slot] = p
		r.unroutedHeads.add(int32(slot))
	}
	r.vqs[slot].push(p)
	r.wake()
	n.Alg.OnArrive(r, p, port, vc)
}

// dequeue pops the head of input VC (port, vc) and returns it: the one
// place a packet leaves an input queue, its tail streaming out
// (evTailLeave) or killed by a fault. Its slot's request and grantable
// bit go with it (an ungranted head's may still be set) and the packet
// behind it becomes the slot's head, unrouted: only heads are granted.
// Even with no next head the departure matters to the other queues'
// heads — OnDequeue lowers the contention counters their decisions read
// — so r is re-armed either way. The caller owes the upstream credit
// (Network.returnCredit).
func (r *Router) dequeue(port, vc int) *Packet {
	slot := int32(r.in[port].slot0) + int32(vc)
	vq := &r.vqs[slot]
	p := vq.pop()
	next := vq.headPkt()
	r.heads[slot] = next
	r.req[slot] = headReq{}
	r.grantable.drop(slot)
	if next == nil {
		r.unroutedHeads.drop(slot)
	} else {
		r.unroutedHeads.add(slot)
	}
	r.wake()
	r.net.Alg.OnDequeue(r, p, port, vc)
	return p
}

// unreserve gives back one packet's credit on downstream VC vc of output
// `port` and, with outBuf, its output-buffer space: the reversal of (part
// of) a grant's reservation when a fault kills the packet holding it.
func (r *Router) unreserve(port int, vc int8, outBuf bool) {
	o, size := &r.out[port], r.net.size
	o.credits[vc] += size
	freed := size
	if outBuf {
		o.outFree += size
		freed += size
	}
	r.occDelta(port, -freed)
}

// CanAccept reports whether output `port`, downstream VC vc, can accept a
// whole packet right now (the VCT admission rule used by the allocator).
func (r *Router) CanAccept(port, vc int) bool {
	o, size := &r.out[port], r.net.size
	return o.outFree >= size && o.credits[vc] >= size
}

// QueuedPackets returns the number of packets in input VC (port, vc).
func (r *Router) QueuedPackets(port, vc int) int { return r.vq(port, vc).len() }

// HeadPacket returns the head packet of input VC (port, vc), or nil.
func (r *Router) HeadPacket(port, vc int) *Packet { return r.heads[int(r.in[port].slot0)+vc] }

// HeadGranted reports whether the head of input VC (port, vc) won switch
// allocation: it stays, streaming out, but no longer arbitrates.
func (r *Router) HeadGranted(port, vc int) bool {
	return r.HeadPacket(port, vc) != nil && !r.unroutedHeads.has(int32(r.in[port].slot0)+int32(vc))
}

// LinkBusy reports whether the link of output `port` is serializing.
func (r *Router) LinkBusy(port int) bool { return r.out[port].linkFreeAt > r.net.now }

// --- per-cycle phases ---

// routePhase fires head hooks and (re)collects allocation requests for
// every unrouted head packet, marking the slots whose request CanAccept
// admits (grantable) and their input ports (reqPorts). It peels
// unroutedHeads, so a granted head or an empty VC costs nothing;
// ascending slots are the port-major, VC-minor order of an all-port
// walk, so hooks fire, Route is called and r.RNG is drawn from in exactly
// that walk's sequence.
//
// It also sets parkable: the visit fired no OnHead, left r.RNG where it
// was and flagged no kill, so by the Route contract (algorithm.go)
// repeating it on unchanged state would store the same requests again.
func (r *Router) routePhase() {
	r.reqPorts.clear()
	r.grantable.clear()
	if r.unroutedHeads.count == 0 {
		return
	}
	n := r.net
	alg := n.Alg
	faults := n.faults != nil
	rng0 := *r.RNG
	kills0 := len(r.shard.pendingKills)
	quiet := true
	for wi, w := range r.unroutedHeads.scan() {
		for ; w != 0; w &= w - 1 {
			slot := r.unroutedHeads.idAt(wi, w)
			p := r.heads[slot]
			port, vc := int(n.slotPort[slot]), int(n.slotVC[slot])
			if !p.HeadSeen {
				p.HeadSeen = true
				quiet = false
				alg.OnHead(r, p, port, vc)
			}
			req, escape := r.decide(alg, faults, p, port, vc)
			r.req[slot] = newHeadReq(req, escape)
			if req.OK && r.CanAccept(req.Out, req.VC) {
				r.grantable.add(slot)
				r.reqPorts.add(int32(port))
			}
		}
	}
	r.parkable = quiet && *r.RNG == rng0 && len(r.shard.pendingKills) == kills0
}

// decide is one routing decision for head packet p: the algorithm's
// Route, post-processed (escape: redirected) by an active fault plan.
func (r *Router) decide(alg Algorithm, faults bool, p *Packet, port, vc int) (req Request, escape bool) {
	req = alg.Route(r, p, port, vc)
	if faults {
		return r.faultAdjust(p, port, vc, req)
	}
	return req, false
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
		for v, c := range o.credits {
			if c < 0 || c > vcCap {
				return fmt.Errorf("router %d out %d vc %d: credits %d of cap %d", r.ID, port, v, c, vcCap)
			}
			occ += vcCap - c
		}
		if occ != o.occ {
			return fmt.Errorf("router %d out %d: incremental occupancy %d but recompute %d", r.ID, port, o.occ, occ)
		}
	}
	// The head table against the queues it summarises, slot by slot.
	unrouted, grantable := 0, 0
	for slot := range r.vqs {
		port, v := int(r.net.slotPort[slot]), int(r.net.slotVC[slot])
		if int(r.in[port].slot0)+v != slot {
			return fmt.Errorf("router %d in %d vc %d: slot %d maps back elsewhere", r.ID, port, v, slot)
		}
		head := r.vqs[slot].headPkt()
		if r.heads[slot] != head {
			return fmt.Errorf("router %d in %d vc %d: head table holds %v but the queue's head is %v", r.ID, port, v, r.heads[slot], head)
		}
		isUnrouted := r.unroutedHeads.has(int32(slot))
		switch {
		case isUnrouted && head == nil:
			return fmt.Errorf("router %d in %d vc %d: unrouted head on an empty queue", r.ID, port, v)
		case isUnrouted:
			unrouted++
		case head != nil && !head.HeadSeen:
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
		if staged := r.out[port].qLen(); (staged > 0) != r.stagedPorts.has(int32(port)) {
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
			p, stored := r.heads[slot], r.req[slot]
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
