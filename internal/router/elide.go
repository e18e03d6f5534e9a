package router

import (
	"fmt"
	"math"
)

// Quiet-cycle elision: jumping the clock over spans in which stepping
// would provably change nothing.
//
// A cycle is quiet when this cycle's calendar buckets are empty and every
// shard's active sets are empty (quietCycle — the same predicate the
// parallel stepper's fork-skipping fast path uses) and no congestion
// notice or fault work is due. Parked routers (stepShard) are not in the route set: heads that
// are all blocked do not make a cycle busy, so a stalled fabric waiting
// on a long link's credits is quiet until the credit event's cycle.
// Stepping such a cycle handles no events, drains no NICs, routes
// nothing, serializes nothing; the only state change is now++ — unless
// the algorithm's BeginCycle does periodic work (an ECtN combine). So
// when the network is quiet, the clock can advance directly to the
// earliest cycle at which anything can happen:
//
//   - the next occupied calendar bucket (future head arrivals, credit
//     returns, pipeline completions, deliveries — every in-flight fabric
//     effect lives on the calendar);
//   - the next congestion notice due (the notice FIFO's head);
//   - the next scheduled fault event;
//   - the next cycle the algorithm's BeginCycle does observable work
//     (CycleHorizon).
//
// The jump is exact, not approximate: every skipped cycle is one the
// stepping path would have executed as a pure no-op, so traces,
// counters, RNG streams and histograms are bit-identical with elision on
// or off, at every worker count. Callers driving an injector must
// additionally cap the jump at the injector's next arrival
// (traffic.Injector.NextArrival); Drain injects nothing and elides on
// the network's own horizon alone.

// NoPendingCycle is the horizon sentinel: "no pending work, ever".
// CycleHorizon implementations return it when BeginCycle never does
// observable work again (no combine pending, no group dirty).
const NoPendingCycle int64 = math.MaxInt64

// CycleHorizon is an optional Algorithm extension that makes the policy
// eligible for quiet-cycle elision. NextAlgCycle returns the next cycle
// c >= Now() at which BeginCycle performs observable work — for ECtN,
// the next combine tick while any group is dirty — or NoPendingCycle
// when no such cycle exists. ok=false disables elision outright. Every
// shipped policy answers ok=true; the benchmark's tracing wrapper answers
// false for an inner algorithm without a horizon.
//
// Algorithms that do not implement CycleHorizon are never elided.
// NopHooks implements it for the no-op BeginCycle it supplies; a policy
// with BeginCycle work of its own overrides both. Implementations must
// be allocation-free: the query runs on the stepping hot path.
type CycleHorizon interface {
	NextAlgCycle(n *Network) (cycle int64, ok bool)
}

// NextEventCycle returns the earliest future cycle holding a scheduled
// event: the first occupied calendar bucket across all shards, the next
// congestion notice and the next unapplied fault-plan event. It returns
// NoPendingCycle when nothing is scheduled at all. Call it with the
// current cycle's buckets drained (quietCycle); the scan is
// allocation-free and costs O(shards x ring size), amortized over the
// span it lets the caller skip.
func (n *Network) NextEventCycle() int64 {
	next := NoPendingCycle
	for s := range n.shards {
		sh := &n.shards[s]
		for d := int64(1); d <= n.mask; d++ {
			c := n.now + d
			if next <= c {
				break
			}
			if sh.cal[c&n.mask].n != 0 {
				next = c
				break
			}
		}
	}
	if n.notices.len() > 0 {
		next = min(next, n.notices.front().at)
	}
	if f := n.faults; f != nil && f.next < len(f.events) {
		if c := f.events[f.next].Cycle; c < next {
			next = c
		}
	}
	return next
}

// ElideHorizon reports how far the clock may jump: the largest cycle
// j in (Now(), target] such that every cycle in [Now(), j) is a
// provable no-op. ok=false means this cycle must be stepped normally —
// the network is not quiet or the algorithm has work due (no
// CycleHorizon, or a due combine). Callers driving an injector must
// further cap the returned horizon at the injector's NextArrival before
// jumping.
func (n *Network) ElideHorizon(target int64) (int64, bool) {
	if target <= n.now {
		return n.now, false
	}
	h, ok := n.Alg.(CycleHorizon)
	if !ok {
		return n.now, false
	}
	algNext, ok := h.NextAlgCycle(n)
	if !ok || algNext <= n.now {
		return n.now, false
	}
	if !n.quietCycle(n.now & n.mask) {
		return n.now, false
	}
	next := n.NextEventCycle()
	if algNext < next {
		next = algNext
	}
	if target < next {
		next = target
	}
	if next <= n.now {
		return n.now, false
	}
	return next, true
}

// ElideTo advances the clock to `cycle` without stepping. It is a
// sequential entry point (like Inject: never while a Step is in
// progress) and must only be given a cycle sanctioned by ElideHorizon —
// jumping past pending work would silently drop it, so the cycle must
// not move backwards and every skipped cycle must be quiet.
func (n *Network) ElideTo(cycle int64) {
	if cycle < n.now {
		panic(fmt.Sprintf("router: ElideTo(%d) behind now %d", cycle, n.now))
	}
	n.now = cycle
}
