package router

import (
	"fmt"
	"math"

	"cbar/internal/topology"
)

// event kinds, processed at their scheduled cycle in insertion order.
type evKind uint8

const (
	// evHeadArrive: pkt's header arrives at input (router, port, vc).
	evHeadArrive evKind = iota
	// evTailLeave: pkt's tail leaves input queue (router, port, vc).
	evTailLeave
	// evCredit: credits for (router, out port, vc) replenish by one
	// packet's worth (Network.size).
	evCredit
	// evPipeDone: pkt exits the router pipeline into output buffer
	// (router, out port), heading for downstream VC vc.
	evPipeDone
	// evOutFree: a packet's tail left the output buffer of (router, port).
	evOutFree
	// evDeliver: pkt fully consumed by the node on ejection channel
	// (router, port).
	evDeliver
)

// event is one calendar entry, 12 bytes. evCredit and evOutFree carry no
// packet (noPkt): both can fire after the packet has been delivered and
// recycled through the freelist, and every packet is Network.size phits
// anyway.
type event struct {
	kind   evKind
	vc     int8
	port   int16
	router int32
	pkt    pktRef
}

// notice is a congestion notification on its way back to source node
// `node`, due at cycle `at`, with severity sev (the delivered packet's
// mark count; see congestion.go).
type notice struct {
	at   int64
	node int32
	sev  int8
}

// noticeChunk is the notices a chunk of Network.notices holds (256 B).
const noticeChunk = 16

// nicRec is a generated packet waiting in its source's NIC queue: what
// Inject was told, plus the id and generation cycle it assigned. No
// router has seen the packet yet, so everything else a Packet carries is
// still its initial value and the Packet itself is made only when the
// record drains into an injection VC (netShard.newPacket) — a saturated
// NIC's backlog costs 24 bytes an entry, not a pointer and an 80-byte
// struct.
type nicRec struct {
	id      uint64
	gen     int64
	dst     int32
	attempt int8
}

// nic models a node's network interface: a bounded generation queue
// draining into the router's injection buffers at one phit per cycle.
// Its queue's chunks come from the pool of the shard that owns the node
// (netShard.nicPool).
type nic struct {
	q          chunkQueue[nicRec]
	linkFreeAt int64
}

func (n *nic) len() int { return n.q.len() }

// nicChunk is the records a NIC queue chunk holds (384 B).
const nicChunk = 16

// Network is a complete simulated Dragonfly: routers, NICs, the event
// calendar and cycle loop. With Config.Workers <= 1 a Network is
// single-goroutine; with Workers > 1 each Step fans the per-cycle phases
// out over shard worker goroutines (see parallel.go), but Step itself
// must still be called from one goroutine, and between Steps the network
// is quiescent. Parallelism across experiments comes from running
// independent Networks concurrently.
type Network struct {
	Cfg  Config
	Topo *topology.Dragonfly
	Alg  Algorithm

	Routers []*Router
	nics    []nic
	groups  [][]*Router
	// slotPort and slotVC map a head slot (inPort.slot0 + vc) back to its
	// input port and VC, and slotCap is the packet capacity of its VC
	// queue, the max(BufFor/PacketSize, 1) its credits admit; every
	// router is laid out alike, so one copy. stageLen is the length of an
	// output stage, the max(BufOut/PacketSize, 1) packets outFree admits.
	slotPort []int16
	slotVC   []int8
	slotCap  []int16
	stageLen int
	// size is Cfg.PacketSize, the one packet size the fabric's phit
	// arithmetic reads, and classes what every port of a class shares.
	size    int32
	classes [Global + 1]portClass
	// shedCap is the NIC backlog at which Inject sheds instead of queueing
	// (congestion.go): NICQueuePackets/4, at least one, and no backlog
	// reaches it while congestion management is off.
	shedCap int

	now  int64
	seed uint64

	// pkts is the packet table every pktRef indexes, a chunk of
	// packetChunk packets per entry, chunk 0 never made (noPkt). Each
	// chunk belongs to the shard that added it, and a packet goes back to
	// that shard's freelist (recycle), so the table keeps every chunk
	// reachable and never shrinks: the packets it retains are bounded by
	// the fabric's peak occupancy plus each shard's reserve, not by a cap.
	// It grows only at sequential points (reserve), so no shard ever
	// reads a table header another goroutine is appending to.
	pkts []*[packetChunk]Packet

	mask int64

	pktID uint64

	// Shard state. Routers (and their NICs) are partitioned into
	// contiguous blocks of whole groups, one per worker; each shard owns
	// the calendar buckets, active sets and mailboxes for its block.
	// With one worker there is exactly one shard and stepping is the
	// sequential active-set loop over it.
	shards []netShard
	// fork synchronizes Step with the per-cycle workers of shards 1..W-1
	// (forkShards); nil with one shard.
	fork *shardFork
	// shardOf maps a router id to its owning shard.
	shardOf []int16

	// Aggregate counters, maintained by the fabric.
	NumGenerated   uint64 // packets accepted into NIC queues
	NumBlocked     uint64 // generation attempts refused (NIC queue full)
	NumDelivered   uint64
	DeliveredPhits uint64
	InFlight       int64

	// Congestion-management counters; all stay zero unless
	// Cfg.Congestion.Enabled (see congestion.go).
	NumMarked   uint64 // delivered packets carrying at least one ECN mark
	NumNotified uint64 // congestion notifications delivered to sources
	NumShed     uint64 // injection attempts shed at the NIC shed cap

	// Fault-injection counters; all stay zero unless a fault plan is
	// scheduled (see faults.go).
	NumDropped    uint64 // packets killed by faults (links, routers, detour cap)
	NumUnroutable uint64 // packets to destinations partitioned away from their source

	// faults is the fault-injection engine; nil unless Cfg.Faults
	// schedules something (see faults.go).
	faults *faultState

	// notices holds the congestion notifications in flight, in delivery
	// order, which is due order: each is due Cfg.NotifyDelay() cycles after
	// its delivery. Made and consumed at sequential points only, its
	// chunks from noticePool.
	notices    chunkQueue[notice]
	noticePool chunkPool[notice]

	// OnDeliver, when non-nil, observes every delivered packet at its
	// delivery cycle (tail consumed by the destination node). Deliveries
	// are collected per shard during event handling and replayed at the
	// handle barrier in ascending destination order — which is also the
	// order the events sit in the calendar bucket — so the callback
	// sequence is bit-identical at every worker count. The callback must
	// treat the network as read-only and may retain the packet's fields
	// only for the duration of the call.
	OnDeliver func(p *Packet, now int64)

	// OnNotify, when non-nil, observes every congestion notification at
	// the cycle it reaches its source: node is the source node the
	// notification targets, sev the delivered packet's mark count. It
	// fires at the handle barrier (replayNotifications) in the order the
	// marked packets were delivered, which is the same at every worker
	// count, so the callback sequence is too. It runs at a sequential
	// point and may mutate its own (source-side) state freely, but must
	// treat the network as read-only. The traffic package's AIMD throttle
	// is the intended consumer.
	OnNotify func(node, sev int, now int64)

	// OnDrop, when non-nil, observes every packet killed by a fault at
	// the cycle it is removed (see faults.go). It runs at a sequential
	// point, in ascending packet-ID order within one fault application —
	// bit-identical at every worker count. The packet's fields are
	// stable only for the duration of the call (the struct is recycled);
	// consumers must copy what they keep. The traffic package's
	// retransmit source is the intended consumer. Packets counted
	// NumUnroutable for a partitioned destination are not reported:
	// retrying them is futile by construction.
	OnDrop func(p *Packet, now int64)
}

// Build constructs a network for cfg with the given routing algorithm and
// random seed.
func Build(cfg Config, alg Algorithm, seed uint64) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if alg == nil {
		return nil, fmt.Errorf("router: nil algorithm")
	}
	topo, err := topology.New(cfg.Topo)
	if err != nil {
		return nil, err
	}
	// Store the fault configuration resolved, so everything downstream
	// (the retransmit source included) reads concrete values.
	cfg.Faults = cfg.Faults.Resolved(cfg)
	n := &Network{Cfg: cfg, Topo: topo, Alg: alg, seed: seed, size: int32(cfg.PacketSize), shedCap: math.MaxInt,
		noticePool: chunkPool[notice]{size: noticeChunk}, pkts: make([]*[packetChunk]Packet, 1, pktTableCap)}
	for k := range n.classes {
		n.classes[k] = newPortClass(&cfg, PortKind(k))
	}
	if cfg.Congestion.Enabled {
		n.shedCap = max(cfg.NICQueuePackets/4, 1)
	}

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > topo.Groups {
		workers = topo.Groups
	}
	if workers > 1 {
		// Cross-shard packet handoffs happen only over global links
		// (local links never leave a group, and shards are whole
		// groups). The shard stepper relies on the upstream tail-leave
		// strictly preceding the downstream head-arrival, which holds
		// exactly when the pipeline plus the link latency exceed the
		// packet serialization time.
		if !cfg.Shardable() {
			return nil, fmt.Errorf(
				"router: workers %d needs PipelineLatency+LatencyGlobal (%d) > PacketSize (%d) so cross-shard handoffs are barrier-ordered",
				workers, cfg.PipelineLatency+cfg.LatencyGlobal, cfg.PacketSize)
		}
		n.fork = new(shardFork)
	}

	horizon := max64(int64(cfg.LatencyGlobal), int64(cfg.LatencyLocal)) +
		int64(cfg.PipelineLatency) + int64(cfg.PacketSize) + 8
	ringSize := int64(1)
	for ringSize < horizon {
		ringSize <<= 1
	}
	n.mask = ringSize - 1

	n.shards = make([]netShard, workers)
	n.shardOf = make([]int16, topo.Routers)
	for s := range n.shards {
		sh := &n.shards[s]
		sh.id = int32(s)
		sh.groupLo = int32(s * topo.Groups / workers)
		sh.groupHi = int32((s + 1) * topo.Groups / workers)
		sh.routerLo = sh.groupLo * int32(topo.A)
		sh.routerHi = sh.groupHi * int32(topo.A)
		sh.nodeLo = sh.routerLo * int32(topo.P)
		sh.nodeHi = sh.routerHi * int32(topo.P)
		sh.cal = make([]calBucket, ringSize)
		sh.calPool = chunkPool[event]{size: chunkEvents}
		sh.nicPool = chunkPool[nicRec]{size: nicChunk}
		sh.uncut = int(sh.routerHi - sh.routerLo)
		sh.nicActive = newActiveSet(sh.nodeLo, sh.nodeHi)
		sh.routeActive = newActiveSet(sh.routerLo, sh.routerHi)
		sh.linkActive = newActiveSet(sh.routerLo, sh.routerHi)
		if workers > 1 {
			sh.outbox = make([][]timedEvent, workers)
		}
		for r := sh.routerLo; r < sh.routerHi; r++ {
			n.shardOf[r] = int16(s)
		}
	}

	slots := topo.P*cfg.VCsInjection + (topo.A-1)*cfg.VCsLocal + topo.H*cfg.VCsGlobal
	n.slotPort, n.slotVC, n.slotCap = make([]int16, slots), make([]int8, slots), make([]int16, slots)
	slot := 0
	for port := 0; port < topo.Radix(); port++ {
		kind := portKind(topo, port)
		vcCap := int16(max(cfg.BufFor(kind)/cfg.PacketSize, 1))
		for vc := range cfg.VCsFor(kind) {
			n.slotPort[slot], n.slotVC[slot], n.slotCap[slot] = int16(port), int8(vc), vcCap
			slot++
		}
	}
	n.stageLen = max(cfg.BufOut/cfg.PacketSize, 1)
	n.buildRouters()
	// A group's routers are consecutive ids (topology.RouterID), as the
	// shards' blocks assume: its member list is a window of Routers.
	n.groups = make([][]*Router, topo.Groups)
	for g := range n.groups {
		lo := topo.RouterID(g, 0)
		n.groups[g] = n.Routers[lo : lo+topo.A : lo+topo.A]
	}
	n.nics = make([]nic, topo.Nodes)
	if cfg.Faults.Enabled() {
		n.faults = newFaultState(cfg.Faults, topo)
		n.computeComponentsInto(n.faults.comp)
	}
	alg.Attach(n)
	return n, nil
}

// pktTableCap is the packet table's capacity at Build: the chunk
// pointers of 15 chunks, 3 840 packets, before its first growth.
const pktTableCap = 16

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Now returns the current simulation cycle.
func (n *Network) Now() int64 { return n.now }

// Group returns the routers of group g, in position order.
func (n *Network) Group(g int) []*Router { return n.groups[g] }

// NICBacklog returns the number of packets waiting in node i's NIC queue.
func (n *Network) NICBacklog(i int) int { return n.nics[i].len() }

// Workers returns the number of shard workers stepping this network
// (1 = sequential).
func (n *Network) Workers() int { return len(n.shards) }

// ShardOfGroup returns the worker shard that owns group g. Observers
// that keep per-shard state beside the fabric (the benchmark's tracer)
// use it to keep their own writes shard-local.
func (n *Network) ShardOfGroup(g int) int {
	return int(n.shardOf[g*n.Topo.A])
}

// portKind classifies a port index using the topology layout.
func portKind(t *topology.Dragonfly, port int) PortKind {
	switch {
	case t.IsInjectionPort(port):
		return Injection
	case t.IsLocalPort(port):
		return Local
	default:
		return Global
	}
}

// Inject offers a new packet from node src to node dst at the current
// cycle. It reports false when the source NIC queue is full (the caller —
// the traffic process — is expected to stall, modeling source throttling
// past saturation). Inject is a sequential entry point: it must not be
// called while a Step is in progress.
func (n *Network) Inject(src, dst int) bool { return n.inject(src, dst, 0) }

// InjectRetry is Inject for a retransmission: the packet carries the
// given attempt number (see FaultConfig.RetryLimit).
func (n *Network) InjectRetry(src, dst int, attempt int8) bool {
	return n.inject(src, dst, attempt)
}

func (n *Network) inject(src, dst int, attempt int8) bool {
	q := &n.nics[src]
	if n.faults != nil {
		srcR := int32(n.Topo.RouterOfNode(src))
		if n.Routers[srcR].down {
			// A dead router's NICs accept nothing.
			n.NumBlocked++
			return false
		}
		dstR := int32(n.Topo.RouterOfNode(dst))
		if !n.reachableRouters(srcR, dstR) {
			// The destination is partitioned away (or its router is
			// down): the packet is accepted by the NIC and immediately
			// discarded as unroutable — counted, never spun through the
			// fabric looking for a path that cannot exist.
			n.NumGenerated++
			n.NumUnroutable++
			return true
		}
	}
	if q.len() >= n.shedCap {
		// Graceful degradation: past the shed cap the NIC drops new
		// packets explicitly (counted, never silent) instead of growing
		// its backlog to NICQueuePackets — a saturated source reaches a
		// stable bounded operating point (see congestion.go).
		n.NumShed++
		return false
	}
	if q.len() >= n.Cfg.NICQueuePackets {
		n.NumBlocked++
		return false
	}
	sh := n.Routers[n.Topo.RouterOfNode(src)].shard
	n.nics[src].q.push(&sh.nicPool, &nicRec{id: n.pktID, gen: n.now, dst: int32(dst), attempt: attempt})
	n.pktID++
	sh.nicActive.add(int32(src))
	n.NumGenerated++
	n.InFlight++
	return true
}

// scheduleFrom appends an event strictly in the future, generated while
// servicing shard src. An event targeting a router of the same shard
// goes straight onto that shard's calendar; a cross-shard event is
// appended to the (src, dst) mailbox instead and drained into dst's
// calendar at the cycle barrier, in ascending (source shard, generation
// order) — see parallel.go. With one worker every event is same-shard
// and the path is the direct calendar push.
func (n *Network) scheduleFrom(src *netShard, cycle int64, ev event) {
	if d := cycle - n.now; d <= 0 || d > n.mask {
		n.badSchedule(cycle, ev.kind)
	}
	if len(n.shards) > 1 {
		if t := n.shardOf[ev.router]; int32(t) != src.id {
			src.outbox[t] = append(src.outbox[t], timedEvent{cycle: cycle, ev: ev})
			return
		}
	}
	// netShard.push, with the store inlined: one call per chunk filled,
	// not per event.
	q := &src.cal[cycle&n.mask]
	if q.room == 0 {
		q.extend(&src.calPool)
	}
	q.store(&ev)
}

// badSchedule is scheduleFrom's failure path, out of line so that the
// hot path carries no formatting code.
func (n *Network) badSchedule(cycle int64, kind evKind) {
	panic(fmt.Sprintf("router: scheduling event kind %d at cycle %d, outside the calendar's reach (now %d, now+%d]",
		kind, cycle, n.now, n.mask))
}

// Step advances the simulation by one cycle: scheduled events, the
// algorithm's per-cycle work (broadcasts), NIC injection, routing
// decisions, Speedup allocation iterations and link serialization.
//
// The per-cycle phases run over the active sets (NICs with backlog,
// routers with unrouted heads that can still move, routers with staged
// output), so the cost of a cycle is proportional to traffic that
// changes state, not topology size or the number of blocked heads (see
// stepShard for the parking rule). The phase barriers and the per-phase
// ascending-id visit order are those of the visit-everything cycle the
// tests pin it against (StepFullScan, export_test.go).
//
// There is one body for every worker count: the two sections and two
// barriers of parallel.go, with the caller as coordinator and shard 0's
// worker. forkShards runs the other shards' sections on goroutines of
// their own when at least two shards have work; otherwise — always with
// one shard — the caller runs them itself, in shard order. The sections
// of different shards are independent, so that is one of the schedules
// the forked step may take and every cycle is identical either way: a
// near-idle fabric does not pay a goroutine round-trip per event.
//
// A quiet cycle (no scheduled events, no due notice or fault work, no
// active components anywhere) skips both sections: every phase would be
// a no-op, so only the sequential BeginCycle runs.
func (n *Network) Step() {
	idx := n.now & n.mask
	f := n.fork // nil with one shard: the caller is the only worker
	busy := n.busyShards(idx)
	if busy == 0 && !n.faultsPending() && !n.noticeDue() {
		n.Alg.BeginCycle(n)
		n.now++
		return
	}
	forked := f != nil && busy >= 2
	rest := n.shards[1:] // the forked workers' shards, or the caller's own

	// Section 1: event handling, one bucket per shard.
	if forked {
		n.forkShards(f, idx)
	}
	n.handleShardBucket(&n.shards[0], idx)
	if forked {
		f.handled.Wait()
	} else {
		for s := range rest {
			n.handleShardBucket(&rest[s], idx)
		}
	}

	// Handle barrier: the sequential point, workers parked.
	n.replayDeliveries()
	n.replayNotifications()
	if n.faults != nil {
		n.applyFaults()
	}
	n.reservePackets()
	n.Alg.BeginCycle(n)

	// Section 2: NIC drain, routing, allocation, link serialization —
	// for every shard, busy at the count or not: the barrier may have
	// woken routers anywhere.
	if forked {
		close(f.resume)
	}
	n.stepShard(&n.shards[0])
	if forked {
		f.stepped.Wait()
	} else {
		for s := range rest {
			n.stepShard(&rest[s])
		}
	}

	// Cycle barrier: route cross-shard events to their target rings.
	if f != nil {
		n.mergeOutboxes()
	}
	n.now++
}

// stepShard services one shard's active sets through the NIC-drain,
// routing, allocation and link phases. Stale entries (drained NICs,
// routers whose heads were all granted, emptied output stages) are
// pruned lazily as each set is scanned; activation happens at the
// mutation points (Inject, event handling, nicDrain), and no phase adds
// to the set it is scanning.
//
// Blocked-router parking: a router whose visit this cycle changed
// nothing — its routePhase fired no OnHead, drew no random number and
// flagged no kill (Router.parkable), and the allocation iterations
// granted none of its heads — leaves the route set with its heads'
// requests stored. By the Route contract (algorithm.go) the same visit
// next cycle would recompute the same requests and the allocator would
// refuse them again, until one of the mutations listed at Router.wake
// happens; each of those re-arms the router before the next route
// phase. A head blocked on credits therefore costs one Route call per
// state change, not one per cycle, and a fabric whose heads are all
// blocked is quiet (elide.go). The tests' StepFullScan visits every
// router every cycle and is the oracle this is pinned against.
//
// No phase reads or writes state outside the shard (routing decisions
// consult only the deciding router and its own group's broadcast state;
// allocation and link serialization touch only the router's own ports;
// cross-shard effects travel as mailboxed events), so under parallel
// stepping the shards run this function concurrently without internal
// barriers.
func (n *Network) stepShard(sh *netShard) {
	for wi, w := range sh.nicActive.scan() {
		for ; w != 0; w &= w - 1 {
			id := sh.nicActive.idAt(wi, w)
			if n.nics[id].len() == 0 {
				sh.nicActive.drop(id)
				continue
			}
			n.nicDrain(int(id))
		}
	}

	sh.allocList = sh.allocList[:0]
	for wi, w := range sh.routeActive.scan() {
		for ; w != 0; w &= w - 1 {
			id := sh.routeActive.idAt(wi, w)
			r := n.Routers[id]
			if r.unroutedHeads.count == 0 {
				sh.routeActive.drop(id)
				continue
			}
			r.routePhase()
			if r.grantable.count > 0 {
				sh.allocList = append(sh.allocList, r)
			}
		}
	}

	// Iteration-major: grants append their events in this order. Each
	// iteration keeps, in place, only the routers that granted (allocate).
	live := sh.allocList
	for it := 0; it < n.Cfg.Speedup && len(live) > 0; it++ {
		k := 0
		for _, r := range live {
			if r.allocate(it > 0) {
				live[k] = r
				k++
			}
		}
		live = live[:k]
	}

	// Park the routers whose visit was a no-op: the set still holds
	// exactly the routers the route phase visited.
	for wi, w := range sh.routeActive.scan() {
		for ; w != 0; w &= w - 1 {
			id := sh.routeActive.idAt(wi, w)
			if r := n.Routers[id]; r.parkable {
				r.parked = true
				sh.routeActive.drop(id)
			}
		}
	}

	for wi, w := range sh.linkActive.scan() {
		for ; w != 0; w &= w - 1 {
			id := sh.linkActive.idAt(wi, w)
			r := n.Routers[id]
			if r.stagedPorts.count == 0 {
				sh.linkActive.drop(id)
				continue
			}
			r.linkPhase()
		}
	}
}

// WakeGroup re-arms every parked router of group g. Algorithms call it
// whenever they change state that Route reads beyond the deciding
// router — ECtN's combined arrays are the one shipped case — which is
// what lets the Route contract (algorithm.go) allow such reads. It is a
// sequential-point call (BeginCycle, fault application): it touches the
// route set of the shard that owns g.
func (n *Network) WakeGroup(g int) {
	for _, r := range n.groups[g] {
		if r.parked {
			r.wake()
		}
	}
}

// nicDrain moves the head of node i's NIC queue into an injection VC of
// its router when the injection channel is idle and a VC has room.
func (n *Network) nicDrain(i int) {
	q := &n.nics[i]
	if q.len() == 0 || q.linkFreeAt > n.now {
		return
	}
	r := n.Routers[n.Topo.RouterOfNode(i)]
	port := n.Topo.ChannelOfNode(i)
	best, bestFree := -1, int16(0)
	slot0 := int(r.in[port].slot0)
	for vc := range int(r.in[port].nvc) {
		if f := n.slotCap[slot0+vc] - r.vqs[slot0+vc].n; f > bestFree {
			best, bestFree = vc, f
		}
	}
	if best < 0 {
		return // injection buffers full; retry next cycle
	}
	q.linkFreeAt = n.now + int64(n.size)
	r.enqueue(r.shard.newPacket(n, i, q.q.pop(&r.shard.nicPool)), port, best)
}

// handle applies one scheduled event. Events are also the activation
// points of the active-set scheduler: staged output work puts the router
// on the link list, and every event that can change a routing decision
// or its admissibility at the router — an arrival, a tail departure,
// returning credits, freed output space — re-arms it for the route phase
// (Router.wake states the whole wake set). Every mutation is
// confined to the target router's shard (activation flags, buffer and
// credit state, algorithm hook state keyed by the router or its group);
// deliveries are collected on the shard and replayed at the handle
// barrier (replayDeliveries).
func (n *Network) handle(ev *event) {
	switch ev.kind {
	case evHeadArrive:
		n.Routers[ev.router].enqueue(n.pkt(ev.pkt), int(ev.port), int(ev.vc))

	case evTailLeave:
		r := n.Routers[ev.router]
		if r.heads[int(r.in[ev.port].slot0)+int(ev.vc)] != ev.pkt {
			panic("router: tail-leave for a packet not at queue head")
		}
		r.dequeue(int(ev.port), int(ev.vc))
		n.returnCredit(r.shard, &r.in[ev.port], ev.vc)

	case evCredit:
		r := n.Routers[ev.router]
		*r.cred(int(ev.port), int(ev.vc)) += n.size
		r.occDelta(int(ev.port), -n.size)
		// Load-bearing: a router whose heads were all blocked on these
		// credits has parked, and this is what brings it back.
		r.wake()

	case evPipeDone:
		r := n.Routers[ev.router]
		r.stage(int(ev.port), outEntry{pkt: ev.pkt, vc: ev.vc})
		r.stagedPorts.add(int32(ev.port))
		r.shard.linkActive.add(ev.router)

	case evOutFree:
		r := n.Routers[ev.router]
		r.out[ev.port].outFree += n.size
		r.occDelta(int(ev.port), -n.size)
		r.wake()

	case evDeliver:
		// Counters, the OnDeliver observer and freelist recycling run at
		// the handle barrier (replayDeliveries), keeping the handle phase
		// free of global mutations. Delivery events of one cycle all come
		// from the same earlier linkPhase, so per-shard buckets hold them
		// in ascending destination order and the shard-order replay
		// reproduces the sequential callback order exactly.
		sh := n.Routers[ev.router].shard
		sh.delivered = append(sh.delivered, ev.pkt)
	}
}

// returnCredit schedules the credit for the packet that left input VC vc
// of ip, one link latency upstream; an injection port has no upstream
// and owes nothing. src is the shard the event is generated on — the
// downstream router's inside a parallel section, nil at a sequential
// point, where the event goes straight onto the upstream router's own
// calendar (the contract Inject relies on). It is the one spelling of the
// upstream evCredit.
func (n *Network) returnCredit(src *netShard, ip *inPort, vc int8) {
	if ip.upRouter < 0 {
		return
	}
	if src == nil {
		src = n.Routers[ip.upRouter].shard
	}
	// The link's two ends are of one class: ip's latency is the upstream port's.
	n.scheduleFrom(src, n.now+n.classes[ip.kind].latency,
		event{kind: evCredit, router: ip.upRouter, port: ip.upPort, vc: vc})
}

// recycle hands a packet that left the fabric — delivered, or killed by a
// fault — to the freelist of the shard that owns its source node: that
// shard made it (newPacket) from a chunk it added, so in steady state
// every shard gets back what it takes, at any worker count, and a chunk's
// packets stay with its shard. Sequential points only.
func (n *Network) recycle(p *Packet) {
	n.shards[n.shardOf[n.Topo.RouterOfNode(int(p.Src))]].free(p.ref)
}

// replayDeliveries applies the deliveries collected during the handle
// phase, in ascending shard order: aggregate counters, the OnDeliver
// observer and freelist recycling. It runs at a sequential point (after
// the handle barrier), so observers may be arbitrary single-threaded
// code.
func (n *Network) replayDeliveries() {
	for s := range n.shards {
		sh := &n.shards[s]
		if len(sh.delivered) == 0 {
			continue
		}
		for _, ref := range sh.delivered {
			p := n.pkt(ref)
			n.NumDelivered++
			n.DeliveredPhits += uint64(n.size)
			n.InFlight--
			if p.ECNMarks > 0 {
				// The destination echoes the congestion marks back to the
				// source, one reverse-path latency later. The notice
				// carries no packet pointer: the packet is recycled below.
				n.NumMarked++
				n.notices.push(&n.noticePool, &notice{at: n.now + n.Cfg.NotifyDelay(), node: p.Src, sev: p.ECNMarks})
			}
			if n.OnDeliver != nil {
				// The packet's fields are stable for the duration of the
				// callback; after it returns the packet may be recycled.
				n.OnDeliver(p, n.now)
			}
			n.recycle(p)
		}
		sh.delivered = sh.delivered[:0]
	}
}

// replayNotifications delivers the congestion notices due this cycle, in
// delivery order: NumNotified and the OnNotify callback. Like
// replayDeliveries it runs at a sequential point, so the consumer may be
// arbitrary single-threaded code.
func (n *Network) replayNotifications() {
	for n.noticeDue() {
		nt := n.notices.pop(&n.noticePool)
		n.NumNotified++
		if n.OnNotify != nil {
			n.OnNotify(int(nt.node), int(nt.sev), n.now)
		}
	}
}

// noticeDue reports whether a congestion notice is due at this cycle's
// handle barrier.
func (n *Network) noticeDue() bool {
	return n.notices.len() > 0 && n.notices.front().at <= n.now
}

// LinkBusy sums the cycles spent serializing phits, per port class,
// across the whole network since construction. Differencing two
// snapshots over a measurement window yields mean link utilization
// (busy cycles / (window × links)).
func (n *Network) LinkBusy() (ejection, local, global int64) {
	for _, r := range n.Routers {
		for port := range r.out {
			b := r.out[port].BusyCycles
			switch r.out[port].kind {
			case Injection:
				ejection += b
			case Local:
				local += b
			default:
				global += b
			}
		}
	}
	return ejection, local, global
}

// LinkCounts returns the number of unidirectional links per class.
func (n *Network) LinkCounts() (ejection, local, global int) {
	t := n.Topo
	return t.Nodes, t.Routers * (t.A - 1), t.Routers * t.H
}

// Drain runs the network with no new injection until every in-flight
// packet is delivered or maxCycles elapse; it reports whether the network
// fully drained. Tests use it to prove forward progress (deadlock
// freedom in practice).
// Drain elides quiet spans (e.g. a lone packet serializing down a long
// global link) — bit-identically to stepping them.
func (n *Network) Drain(maxCycles int64) bool {
	end := n.now + maxCycles
	for n.now < end && n.InFlight > 0 {
		if j, ok := n.ElideHorizon(end); ok {
			n.ElideTo(j)
			continue
		}
		n.Step()
	}
	return n.InFlight == 0
}
