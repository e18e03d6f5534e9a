package router

import "sync"

// Shard-parallel stepping.
//
// The network is partitioned into W = Config.Workers shards of
// contiguous whole groups (router ids are contiguous per group, so a
// shard owns contiguous router and node id ranges). Each Step runs two
// sections with a barrier after each — in parallel across the shards
// when W > 1, on the calling goroutine alone when W = 1, where the
// barriers cost nothing and there are no mailboxes to drain:
//
//	section 1  event handling: each shard drains its own calendar-ring
//	           bucket for this cycle.
//	barrier    deliveries collected by the shards are replayed in
//	           ascending shard order (counters, OnDeliver, freelist)
//	           and congestion notifications in ascending source-node
//	           order (counters, OnNotify), then Alg.BeginCycle runs —
//	           the sequential point hosting the group-wide exchanges
//	           (ECtN combine, reference scans).
//	section 2  NIC drain → routing → Speedup allocation iterations →
//	           link serialization, each shard over its own active sets
//	           (stepShard).
//	barrier    cross-shard mailboxes are drained into the target shards'
//	           rings in ascending (source shard, generation seq) order,
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
//     different ports, watcher-driven flag flips) commute — the state
//     after the bucket is drained is order-independent, which the
//     equivalence tests pin bit-for-bit.
//   - Deliveries all target the shard of their destination router, and
//     one cycle's delivery events were all scheduled by the same earlier
//     linkPhase in ascending router order, so concatenating the shards'
//     delivery lists in shard order reproduces the exact sequential
//     OnDeliver order at any worker count.
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
// the calendar-ring slice holding events that target them, the active
// sets that schedule them, and the outgoing cross-shard mailboxes.
type netShard struct {
	id                 int32
	groupLo, groupHi   int32 // owned groups [lo, hi)
	routerLo, routerHi int32 // owned router ids [lo, hi)
	nodeLo, nodeHi     int32 // owned node ids [lo, hi)

	// ring is the calendar ring of events targeting this shard's
	// routers, indexed by cycle & mask.
	ring [][]event

	// Active-set scheduler state over the owned id ranges.
	nicActive   activeSet
	routeActive activeSet
	linkActive  activeSet
	// allocList is rebuilt every cycle: the owned routers whose
	// routePhase registered at least one allocation request.
	allocList []*Router

	// outbox[t] collects events generated by this shard that target
	// shard t, in generation order; drained at the cycle barrier.
	// Nil when the network runs a single worker.
	outbox [][]timedEvent

	// delivered collects this shard's delivery events of the current
	// handle phase, replayed in shard order at the handle barrier.
	delivered []*Packet

	// notified collects this shard's congestion notifications (evNotify)
	// of the current handle phase, replayed at the handle barrier in
	// ascending source-node order (replayNotifications).
	notified []notifyRec

	// pendingKills collects the head packets this shard's route phase
	// flagged for removal (unreachable destination, exhausted detour
	// budget — see faults.go), resolved at the next sequential point in
	// ascending shard order. Always empty without a fault plan.
	pendingKills []pendingKill
}

// notifyRec is one collected congestion notification: the source node it
// targets and the delivered packet's mark count.
type notifyRec struct {
	node int32
	sev  int8
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
	//lint:alloc per-cycle coordinator channel; fixed cost accounted in the alloc baselines
	f.resume = make(chan struct{})
	for s := 1; s < len(n.shards); s++ {
		//lint:alloc per-cycle worker launch; the goroutine and its closure do not outlive this step
		go func(sh *netShard, resume <-chan struct{}) {
			n.handleShardBucket(sh, idx)
			f.handled.Done()
			<-resume
			n.stepShard(sh)
			f.stepped.Done()
		}(&n.shards[s], f.resume)
	}
}

// quietCycle reports whether this cycle has no work anywhere: empty
// calendar buckets and empty active sets on every shard, and no due
// fault work (a due plan event or pending kill must reach applyFaults
// at this cycle's barrier, exactly when the sequential stepper applies
// it). Stale active-set entries (a drained NIC not yet pruned) count as
// work — the phase scan would prune them — which only defers the
// pruning to the next busy cycle and changes no observable state.
// Parked routers are in no set, so a fabric of blocked heads is quiet.
func (n *Network) quietCycle(idx int64) bool {
	if n.faultsPending() {
		return false
	}
	for s := range n.shards {
		sh := &n.shards[s]
		if len(sh.ring[idx]) != 0 || len(sh.nicActive.ids) != 0 ||
			len(sh.routeActive.ids) != 0 || len(sh.linkActive.ids) != 0 {
			return false
		}
	}
	return true
}

// handleShardBucket drains one shard's calendar bucket for this cycle.
func (n *Network) handleShardBucket(sh *netShard, idx int64) {
	bucket := sh.ring[idx]
	for i := range bucket {
		n.handle(&bucket[i])
	}
	sh.ring[idx] = bucket[:0]
}

// mergeOutboxes drains every cross-shard mailbox into its target shard's
// calendar ring. For each target the sources are visited in ascending
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
				idx := mb[i].cycle & n.mask
				dst.ring[idx] = append(dst.ring[idx], mb[i].ev)
			}
			n.shards[s].outbox[t] = mb[:0]
		}
	}
}
