package router

import (
	"fmt"
	"math"

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
// fault-escape redirect (faultAdjust). routePhase rewrites it on every
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

// outEntry is a packet staged in an output buffer with its downstream
// VC, 8 bytes.
type outEntry struct {
	pkt pktRef
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
// port's class fixes is in Network.classes. Its credits and its stage
// are spans of its router's rows (Router.credits, Router.stages), so the
// port holds no slice; the fields are ordered by size to pack 48 bytes.
type outPort struct {
	linkFreeAt int64
	// BusyCycles accumulates cycles the link spent serializing phits,
	// for utilization statistics.
	BusyCycles int64

	peerRouter int32 // -1 for ejection channels
	outFree    int32
	// occ is the running occupancy estimate (staged output phits plus
	// outstanding downstream credits), maintained incrementally at the
	// three mutation points (grant, credit return, out-buffer free) so
	// Occupancy is O(1) instead of a per-call credit-array sum.
	occ int32

	q        outRing // output stage: granted packets past the pipeline
	peerPort int16
	// cred0 is the port's first counter in Router.credits, one per
	// downstream VC (ncred of them), in phits.
	cred0 int16
	rrIn  int16 // output-arbiter round-robin pointer
	kind  PortKind
	ncred int8

	// Fault liveness (faults.go): linkFailed records an explicit link
	// fault on this direction's cable; dead is the effective flag the
	// routing hot path reads — linkFailed, or either endpoint router
	// down. Both always false without a fault plan.
	linkFailed bool
	dead       bool
}

// Router is one simulated router: input VC buffers and the head table
// that summarises them for the route phase and the allocator, output
// ports with credits and the separable allocator state. What a routing
// algorithm keeps per router (contention counters, ECtN partials) is the
// algorithm's own, not the fabric's.
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
	// of ports × VCs × packets: each input VC's head packet (noPkt when
	// empty), the request the last routePhase stored for it, and the set
	// of slots whose head awaits a grant. enqueue, dequeue and grant keep
	// them in step, eagerly: no stale members, and a nonzero count means
	// work until r parks. A queue is linked through its packets, and its
	// head is its slot's entry of heads (vcQueue).
	vqs           []vcQueue
	heads         []pktRef
	req           []headReq
	unroutedHeads activeSet
	// grantable holds the slots the allocator may nominate: routePhase
	// sets a slot whose stored request CanAccept admits; grant, dequeue
	// and a later iteration's failed re-check drop it. Credits and output
	// space only fall between routePhase and the end of the allocation
	// iterations, so a slot outside it could not be granted.
	grantable activeSet

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

	// credits holds the output ports' downstream credit counters, port
	// by port (outPort.cred0), and stages their output stages, stageLen
	// entries per port, nil until r's first output push (cutStages).
	credits []int32
	stages  []outEntry

	// allocator state and scratch
	rrVC []int8 // per input port: round-robin pointer over VCs
	s1   []int8 // per input port: stage-1 winning VC this iteration
	// cand holds each output port's nominating input ports as a bitset:
	// len(reqPorts.words) words per output, empty between iterations.
	cand []uint64
}

// buildRouters makes every router of n. Each per-router array kind — the
// Router structs, ports, VC queues, head table, credits, the slot and
// port sets' words, the allocator's arrays and the PCGs — is one
// allocation for the whole network, cut router by router into rows that
// its ports and VC queues index, so Build's allocation count does not
// grow with the fabric. The output
// stages' row is not among them: it is cut at the router's first output
// push (cutStages).
func (n *Network) buildRouters() {
	cfg := &n.Cfg
	topo := n.Topo
	nr, radix, slots := topo.Routers, topo.Radix(), len(n.slotPort)
	// An ejection channel feeds one lane where an injection port has
	// VCsInjection.
	credLen := slots - topo.P*(cfg.VCsInjection-1)
	// Words per router: the two head-slot sets, the three port sets and
	// cand's radix port sets.
	sw, pw := (slots+63)/64, (radix+63)/64
	var (
		routers = make([]Router, nr)
		in      = make([]inPort, nr*radix)
		out     = make([]outPort, nr*radix)
		vqs     = make([]vcQueue, nr*slots)
		heads   = make([]pktRef, nr*slots)
		req     = make([]headReq, nr*slots)
		credits = make([]int32, nr*credLen)
		words   = make([]uint64, nr*(2*sw+(3+radix)*pw))
		arb     = make([]int8, nr*2*radix) // rrVC and s1
		pcgs    = make([]rng.PCG, nr)
	)
	n.Routers = make([]*Router, nr)
	for id := range routers {
		pcgs[id].Seed(n.seed, uint64(id)+1)
		r := &routers[id]
		*r = Router{
			ID:            id,
			net:           n,
			shard:         &n.shards[n.shardOf[id]],
			in:            cut(&in, radix),
			out:           cut(&out, radix),
			group:         int32(topo.GroupOf(id)),
			vqs:           cut(&vqs, slots),
			heads:         cut(&heads, slots),
			req:           cut(&req, slots),
			unroutedHeads: activeSet{words: cut(&words, sw)},
			grantable:     activeSet{words: cut(&words, sw)},
			RNG:           &pcgs[id],
			stagedPorts:   activeSet{words: cut(&words, pw)},
			reqPorts:      activeSet{words: cut(&words, pw)},
			dirtyOut:      activeSet{words: cut(&words, pw)},
			credits:       cut(&credits, credLen),
			rrVC:          cut(&arb, radix),
			s1:            cut(&arb, radix),
			cand:          cut(&words, radix*pw),
		}
		slot, cred := 0, 0
		for port := 0; port < radix; port++ {
			kind := portKind(topo, port)
			vcN := cfg.VCsFor(kind)
			ip, op := &r.in[port], &r.out[port]
			ip.kind, ip.nvc, ip.slot0 = kind, int8(vcN), int16(slot)
			slot += vcN
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
			op.cred0, op.ncred = int16(cred), int8(dn)
			for v := range dn {
				r.credits[cred+v] = n.classes[kind].vcCap
			}
			cred += dn
		}
		n.Routers[id] = r
	}
}

// cut hands out the first k elements of *s, capacity-capped so no append
// reaches the next share, and advances *s past them.
func cut[T any](s *[]T, k int) []T {
	v := (*s)[:k:k]
	*s = (*s)[k:]
	return v
}

// stage pushes e onto output port's stage, cutting r's stage row at
// its first output push.
func (r *Router) stage(port int, e outEntry) {
	if r.stages == nil {
		r.cutStages()
	}
	r.out[port].q.push(r.stageRing(port), e)
}

// stageRing returns the ring of output `port`'s stage: its stageLen
// entries of r's stage row, which must have been cut.
func (r *Router) stageRing(port int) []outEntry {
	k := r.net.stageLen
	return r.stages[port*k : port*k+k]
}

// cutStages gives r its stage row at the router's first output push,
// stageLen entries per output port (the max(BufOut/PacketSize, 1) that
// outFree admits), cut from its shard's current batch. An exhausted batch
// is replaced by one holding the rows of stageBatch routers, or of the
// shard's routers still without rows when fewer are left: a shard holds
// no more rows than its routers, and a near-idle run no more than its
// first forwarding routers need, rounded up to a batch.
func (r *Router) cutStages() {
	k := r.net.stageLen
	sh := r.shard
	if len(sh.stages) == 0 {
		sh.stages = make([]outEntry, min(stageBatch, sh.uncut)*len(r.out)*k)
	}
	sh.uncut--
	r.stages = cut(&sh.stages, len(r.out)*k)
}

// stageBatch is how many routers' stage rings a shard allocates at once
// (15 KB at Small).
const stageBatch = 16

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

// cred returns the credit counter of downstream VC vc of output `port`.
func (r *Router) cred(port, vc int) *int32 { return &r.credits[int(r.out[port].cred0)+vc] }

// class returns what output `port` shares with its class.
func (r *Router) class(port int) *portClass { return &r.net.classes[r.out[port].kind] }

// OutVCs returns the number of downstream VCs reachable through output
// `port`.
func (r *Router) OutVCs(port int) int { return int(r.out[port].ncred) }

// Credits returns the available credits (phits) for downstream VC vc of
// output port.
func (r *Router) Credits(port, vc int) int32 { return *r.cred(port, vc) }

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
	// Its room was reserved by upstream credits when transmission started,
	// and resetQueueState cleared p.next.
	slot := int(r.in[port].slot0) + vc
	q := &r.vqs[slot]
	switch {
	case q.n == 0:
		r.heads[slot] = p.ref
		r.unroutedHeads.add(int32(slot))
	case q.n == n.slotCap[slot]:
		panic("router: input VC overflow; upstream credit accounting is broken")
	default:
		n.pkt(q.tail).next = p.ref
	}
	q.tail = p.ref
	q.n++
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
	q := &r.vqs[slot]
	if q.n == 0 {
		panic("router: pop from empty VC queue")
	}
	p := r.net.pkt(r.heads[slot])
	if (p.next == noPkt) != (q.n == 1) {
		r.badQueue(port, vc, q.n, p.next)
	}
	r.heads[slot] = p.next
	r.req[slot] = headReq{}
	r.grantable.drop(slot)
	if q.n--; q.n == 0 {
		q.tail = noPkt
		r.unroutedHeads.drop(slot)
	} else {
		r.unroutedHeads.add(slot)
	}
	r.wake()
	r.net.Alg.OnDequeue(r, p, port, vc)
	return p
}

// badQueue is dequeue's failure path, out of line like badSchedule: the
// popped head's queue link disagrees with the count.
func (r *Router) badQueue(port, vc int, n int16, next pktRef) {
	panic(fmt.Sprintf("router: router %d input VC (port %d, VC %d) holds %d packets but its head links to ref %d (0 = none)",
		r.ID, port, vc, n, next))
}

// unreserve gives back one packet's credit on downstream VC vc of output
// `port` and, with outBuf, its output-buffer space: the reversal of (part
// of) a grant's reservation when a fault kills the packet holding it.
func (r *Router) unreserve(port int, vc int8, outBuf bool) {
	o, size := &r.out[port], r.net.size
	*r.cred(port, int(vc)) += size
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
	return o.outFree >= size && r.credits[int(o.cred0)+vc] >= size
}

// QueuedPackets returns the number of packets in input VC (port, vc).
func (r *Router) QueuedPackets(port, vc int) int { return int(r.vqs[int(r.in[port].slot0)+vc].n) }

// HeadPacket returns the head packet of input VC (port, vc), or nil.
func (r *Router) HeadPacket(port, vc int) *Packet {
	ref := r.heads[int(r.in[port].slot0)+vc]
	if ref == noPkt {
		return nil
	}
	return r.net.pkt(ref)
}

// HeadGranted reports whether the head of input VC (port, vc) won switch
// allocation: it stays, streaming out, but no longer arbitrates.
func (r *Router) HeadGranted(port, vc int) bool { return r.slotGranted(int(r.in[port].slot0) + vc) }

// slotGranted is HeadGranted by head slot.
func (r *Router) slotGranted(slot int) bool {
	return r.heads[slot] != noPkt && !r.unroutedHeads.has(int32(slot))
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
			p := n.pkt(r.heads[slot])
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

// maxFaultDetours caps the escape redirections a single packet may
// accumulate before it is dropped as unable to make progress around the
// fault pattern.
const maxFaultDetours = 16

// faultAdjust post-processes a routing decision when a fault plan is
// active. It runs inside the shard-parallel route phase but touches only
// the deciding router's state (its RNG, its shard's pendingKills list),
// preserving the parallel determinism contract. It also keeps the
// parking rule's side of the Route contract: the two outcomes that are
// not repeatable leave a trace routePhase sees (a flagged kill, a random
// draw), so the router stays in the route set; the pass-through reads
// only liveness and reachability, which change only with an applied
// fault event — and that wakes every parked router. Three outcomes:
//
//   - The destination is unreachable: flag the head for an Unroutable
//     kill at the next sequential point and request nothing.
//   - The requested port is dead but the destination reachable: redirect
//     through a uniformly random live transit port (every live port
//     leads into this router's own component, so any of them can make
//     progress), on the VC the ascending discipline assigns that hop
//     (LadderVC; escape paths are longer than the ladder was sized for,
//     so its cap is routinely reached). The grant will count a
//     FaultDetour; past maxFaultDetours the packet is flagged for a
//     Dropped kill instead.
//   - The requested port is alive: the decision passes through
//     untouched, and — because the RNG is only consumed on the dead-port
//     path — the router's random stream stays identical to a fault-free
//     run until a fault actually bites.
func (r *Router) faultAdjust(p *Packet, port, vc int, req Request) (_ Request, escape bool) {
	n := r.net
	if !n.reachableRouters(int32(r.ID), p.DstRouter) {
		return r.flagKill(p, port, vc, killUnreachable), false
	}
	if !req.OK || !r.out[req.Out].dead {
		return req, false
	}
	if p.FaultDetours >= maxFaultDetours {
		return r.flagKill(p, port, vc, killDetourCap), false
	}
	first := n.Topo.FirstLocalPort()
	pick, ok := r.PickPort(first, len(r.out)-first, -1, nil)
	if !ok {
		// No live link at all, yet the destination looked reachable:
		// only possible when the destination is this router itself —
		// but then the minimal request is the (never dead) ejection
		// channel and we would not be here. Treat as partitioned.
		return r.flagKill(p, port, vc, killUnreachable), false
	}
	return Request{Out: pick, VC: r.LadderVC(p, pick), OK: true}, true
}

// flagKill flags head packet p of input VC (port, vc) for removal at the
// next sequential point and requests nothing for it.
func (r *Router) flagKill(p *Packet, port, vc int, reason uint8) Request {
	r.shard.pendingKills = append(r.shard.pendingKills, pendingKill{
		router: int32(r.ID), port: int16(port), vc: int8(vc), reason: reason, pkt: p.ref,
	})
	return Request{}
}

// pendingKill reasons.
const (
	killUnreachable uint8 = iota // destination partitioned: NumUnroutable
	killDetourCap                // detour cap exhausted: NumDropped
)

// pendingKill is a head packet flagged for removal by a routing decision
// (unreachable destination or exhausted detour budget). The flag is
// raised during the shard-parallel route phase and resolved at the next
// sequential point, after re-verifying that the packet is still the
// ungranted head (and, for unreachable kills, that no repair restored
// the path in between).
type pendingKill struct {
	router int32
	port   int16
	vc     int8
	reason uint8
	pkt    pktRef
}
