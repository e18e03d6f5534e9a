package router

import "sync"

// Shard-parallel stepping.
//
// The network is partitioned into W = Config.Workers shards of
// contiguous whole groups (router ids are contiguous per group, so a
// shard owns contiguous router and node id ranges). Each Step runs two
// sections with a barrier after each — in parallel across the shards
// when at least two of them have work, on the calling goroutine alone,
// shard after shard, otherwise (always when W = 1, where there are no
// mailboxes to drain either):
//
//	section 1  event handling: each shard drains its own calendar
//	           bucket for this cycle.
//	barrier    deliveries collected by the shards are replayed in
//	           ascending shard order (counters, OnDeliver, freelist),
//	           the congestion notices due pop off the network's one
//	           FIFO (counters, OnNotify), faults apply, every shard's
//	           packet reserve is topped up (reservePackets: the packet
//	           table grows here only), then Alg.BeginCycle runs —
//	           the sequential point hosting the group-wide exchanges
//	           (the ECtN combine).
//	section 2  NIC drain → routing → Speedup allocation iterations →
//	           link serialization, each shard over its own active sets
//	           (stepShard).
//	barrier    cross-shard mailboxes are drained into the target shards'
//	           calendars in ascending (source shard, generation seq) order,
//	           and the cycle counter advances.
//
// Why this is cycle-for-cycle identical to sequential stepping:
//
//   - Within each section no shard reads or writes another shard's
//     state. Routing decisions consult only the deciding router (its
//     occupancies, credits, contention counters, RNG stream) and its own
//     group's broadcast state (PB saturation flags, ECtN combined
//     arrays) — and a group never spans shards. Allocation and link
//     serialization touch only the router's own ports. So at each
//     barrier every component's state equals the sequential stepper's
//     state at the same phase boundary.
//   - The only cross-shard effects are future events: credit returns to
//     an upstream router and head arrivals at a global-link peer. They
//     are appended to per-(src,dst) mailboxes in generation order and
//     drained at the cycle barrier in ascending source-shard order.
//     Events that interact non-commutatively always share source and
//     target (a port's pipeline completions, an input VC's arrivals
//     serialized by its link), so their FIFO order is preserved; the
//     remaining same-cycle interleavings (credit returns, arrivals on
//     different ports) commute — the state
//     after the bucket is drained is order-independent, which the
//     equivalence tests pin bit-for-bit.
//   - Deliveries all target the shard of their destination router, and
//     one cycle's delivery events were all scheduled by the same earlier
//     linkPhase in ascending router order, so concatenating the shards'
//     delivery lists in shard order reproduces the exact sequential
//     OnDeliver order at any worker count — and the notice order, since
//     the replay pushes a marked delivery's notice in that order.
//   - Cross-shard packet handoffs are barrier-ordered: the upstream
//     tail-leave fires strictly before the downstream head-arrival
//     (Build enforces PipelineLatency+LatencyGlobal > PacketSize), so a
//     packet is never touched by two shards in the same cycle.
//   - Sequential entry points (Inject, BeginCycle, OnDeliver replay,
//     mailbox merge) run with all workers quiescent.
//   - Blocked-router parking (stepShard) is shard-local on both sides: a
//     router parks on its own shard's verdict and is woken by events
//     handled on its own shard, or at the sequential point (fault
//     application, WakeGroup from BeginCycle). Which routers are parked
//     is therefore the same at every worker count.
//
// Per-router rng.New(seed, id+1) streams make every random decision
// shard-local, and per-shard active sets keep the ascending-id visit
// order of the sequential stepper within each shard.

// timedEvent is a mailboxed cross-shard event with its target cycle.
type timedEvent struct {
	cycle int64
	ev    event
}

// netShard owns a contiguous block of whole groups: their routers, NICs,
// the calendar of events that target them, the active sets that schedule
// them, and the outgoing cross-shard mailboxes.
type netShard struct {
	id                 int32
	groupLo, groupHi   int32 // owned groups [lo, hi)
	routerLo, routerHi int32 // owned router ids [lo, hi)
	nodeLo, nodeHi     int32 // owned node ids [lo, hi)

	// cal is the calendar of events targeting this shard's routers, one
	// bucket per ring slot (cycle & mask), its chunks from calPool
	// (calendar.go). nicPool holds the chunks of the shard's NIC queues:
	// Inject pushes onto them at the sequential point, nicDrain pops in
	// the shard's own section.
	cal     []calBucket
	calPool chunkPool[event]
	nicPool chunkPool[nicRec]

	// stages is the unconsumed part of the shard's current batch of
	// output stage rings, and uncut counts its routers that have not cut
	// theirs yet (Router.cutStages).
	stages []outEntry
	uncut  int

	// Active-set scheduler state over the owned id ranges.
	nicActive   activeSet
	routeActive activeSet
	linkActive  activeSet
	// allocList is rebuilt every cycle: the owned routers whose
	// routePhase found at least one grantable head slot.
	allocList []*Router

	// outbox[t] collects events generated by this shard that target
	// shard t, in generation order; drained at the cycle barrier.
	// Nil when the network runs a single worker.
	outbox [][]timedEvent

	// delivered collects this shard's delivery events of the current
	// handle phase, replayed in shard order at the handle barrier.
	delivered []pktRef

	// freePkts is the stack of the shard's packets that left the fabric,
	// LIFO, so a steady-state NIC drain allocates nothing. newPacket pops
	// it inside the parallel section; Network.recycle pushes a packet
	// back onto the shard of its source node at the sequential points.
	freePkts []pktRef
	// [fresh, freshEnd) are the refs of the shard's newest chunk that
	// were never handed out: a freelist miss takes the next one. With the
	// freelist they are the shard's reserve, which only a sequential
	// point tops up (Network.reserve); chunks counts the chunks the shard
	// added to the table.
	fresh, freshEnd pktRef
	chunks          int

	// pendingKills collects the head packets this shard's route phase
	// flagged for removal (unreachable destination, exhausted detour
	// budget — see faultAdjust), resolved at the next sequential point in
	// ascending shard order. Always empty without a fault plan.
	pendingKills []pendingKill
}

// newPacket makes the Packet of a record leaving the NIC queue of src,
// a node of this shard, from the shard's reserve: the freelist's top, or
// its next fresh ref when the freelist is empty. It goes into an
// injection VC (nicDrain, inside the parallel section), or into a
// fault's victim set when src's router dies with the record still
// queued. The id and generation cycle are the record's, assigned by
// Inject; the path state starts out empty. It never grows the packet
// table, which another shard may be reading: an empty reserve means the
// sequential point's top-up missed a drain, and panics.
func (sh *netShard) newPacket(n *Network, src int, rec nicRec) *Packet {
	var ref pktRef
	if k := len(sh.freePkts); k > 0 {
		ref = sh.freePkts[k-1]
		sh.freePkts = sh.freePkts[:k-1]
	} else if sh.fresh < sh.freshEnd {
		ref = sh.fresh
		sh.fresh++
	} else {
		panic("router: packet reserve exhausted; the sequential point's top-up (Network.reserve) missed a drain")
	}
	p := n.pkt(ref)
	*p = Packet{
		ID:          rec.id,
		Src:         int32(src),
		Dst:         rec.dst,
		DstRouter:   int32(n.Topo.RouterOfNode(int(rec.dst))),
		dstGroup:    int16(n.Topo.GroupOfNode(int(rec.dst))) + 1,
		Size:        n.size,
		GenTime:     rec.gen,
		Inter:       -1,
		LastGroup:   -1,
		CountedPort: -1,
		CountedLink: -1,
		Attempt:     rec.attempt,
		ref:         ref,
	}
	return p
}

// free pushes ref, a packet of the shard's chunks, onto its freelist.
func (sh *netShard) free(ref pktRef) {
	sh.freePkts = append(sh.freePkts, ref)
}

// reservePackets tops every shard's reserve up to one packet per NIC in
// its NIC set, a bound on the drains of the section ahead: a NIC drains
// at most one record a cycle, and only Inject, between Steps, adds to
// the set. Called at the handle barrier, after fault application.
func (n *Network) reservePackets() {
	for s := range n.shards {
		sh := &n.shards[s]
		n.reserve(sh, int(sh.nicActive.count))
	}
}

// reserve adds chunks to the packet table for sh until it can make k
// packets. The fresh refs a chunk replaces go onto the freelist first,
// so every ref stays the shard's. Sequential points only: the table is
// read by every shard.
func (n *Network) reserve(sh *netShard, k int) {
	for len(sh.freePkts)+int(sh.freshEnd-sh.fresh) < k {
		for ; sh.fresh < sh.freshEnd; sh.fresh++ {
			sh.free(sh.fresh)
		}
		c := new([packetChunk]Packet)
		sh.fresh = pktRef(len(n.pkts)) << packetShift
		sh.freshEnd = sh.fresh + packetChunk
		n.pkts = append(n.pkts, c)
		sh.chunks++
	}
}

// shardFork is the synchronization state of one cycle's fork: the
// workers of shards 1..W-1 against the coordinator, which is the
// goroutine that called Step and doubles as shard 0's worker.
type shardFork struct {
	// handled and stepped count the forked workers still inside
	// section 1 and section 2.
	handled, stepped sync.WaitGroup
	// resume is closed by the coordinator to open section 2.
	resume chan struct{}
}

// forkShards starts this cycle's worker for every shard but the first:
// the worker runs its handle section, parks on resume while the
// coordinator replays deliveries and runs BeginCycle, then runs its main
// section — so no goroutines outlive the Step call and nothing leaks
// when a Network is dropped mid-run.
func (n *Network) forkShards(f *shardFork, idx int64) {
	f.handled.Add(len(n.shards) - 1)
	f.stepped.Add(len(n.shards) - 1)
	f.resume = make(chan struct{})
	for s := 1; s < len(n.shards); s++ {
		go func(sh *netShard, resume <-chan struct{}) {
			n.handleShardBucket(sh, idx)
			f.handled.Done()
			<-resume
			n.stepShard(sh)
			f.stepped.Done()
		}(&n.shards[s], f.resume)
	}
}

// busyShards counts the shards with work this cycle: a non-empty
// calendar bucket or a non-empty active set. Stale active-set entries (a
// drained NIC not yet pruned) count as work — the phase scan would prune
// them — which only defers the pruning to the next busy cycle and changes
// no observable state. Parked routers are in no set, so a shard of
// blocked heads is not busy.
func (n *Network) busyShards(idx int64) (busy int) {
	for s := range n.shards {
		sh := &n.shards[s]
		if sh.cal[idx].n != 0 || sh.nicActive.count != 0 ||
			sh.routeActive.count != 0 || sh.linkActive.count != 0 {
			busy++
		}
	}
	return busy
}

// quietCycle reports whether this cycle has no work anywhere: no busy
// shard, no due congestion notice and no due fault work (a due plan
// event or pending kill must reach applyFaults at this cycle's barrier,
// exactly when the sequential stepper applies it).
func (n *Network) quietCycle(idx int64) bool {
	return !n.faultsPending() && !n.noticeDue() && n.busyShards(idx) == 0
}

// handleShardBucket drains one shard's calendar bucket for this cycle,
// front to back. Each chunk returns to the pool as soon as it is read,
// so the events its handlers schedule refill it while it is still in
// cache; they go to other buckets, never onto the chain being walked.
func (n *Network) handleShardBucket(sh *netShard, idx int64) {
	for run := range sh.cal[idx].drain(&sh.calPool) {
		for i := range run {
			n.handle(&run[i])
		}
	}
}

// mergeOutboxes drains every cross-shard mailbox into its target shard's
// calendar. For each target the sources are visited in ascending
// shard order and each mailbox in generation order, so a target bucket
// receives cross-shard events in ascending (source shard, seq) — the
// same relative order the sequential stepper's ascending-id phase scans
// would have inserted them in. Cross-shard events are always at least
// one cycle in the future (links have latency ≥ 1), so merging at the
// cycle barrier never misses a bucket.
func (n *Network) mergeOutboxes() {
	for t := range n.shards {
		dst := &n.shards[t]
		for s := range n.shards {
			mb := n.shards[s].outbox[t]
			if len(mb) == 0 {
				continue
			}
			for i := range mb {
				dst.push(mb[i].cycle&n.mask, &mb[i].ev)
			}
			n.shards[s].outbox[t] = mb[:0]
		}
	}
}
