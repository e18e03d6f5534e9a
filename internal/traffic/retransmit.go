package traffic

import "cbar/internal/router"

// retransmitter is the source side of the fault-recovery loop (see
// internal/router/faults.go): when the fabric kills a packet on a
// failing link, the source NIC re-offers it with exponential backoff,
// up to RetryLimit attempts. The state is a calendar min-heap of
// pending retries ordered by (due cycle, enqueue sequence); both keys
// are assigned at sequential points — OnDrop fires at the fault barrier
// in ascending packet-ID order, injection runs between cycles — so the
// retry stream is bit-identical at every worker count.
//
// A retry whose injection the network refuses is re-queued for the next
// cycle without consuming an attempt: refusal is local backpressure, not
// evidence the path is still broken. Network.InjectRetry refuses in three
// cases: the source router is down, the NIC backlog is at the shed cap
// (congestion management on), or the NIC queue is full. Retries bypass
// the congestion throttle's pacing: cycle never consults it, so a
// throttled source still re-offers its drops at once.
type retransmitter struct {
	net     *router.Network
	limit   int8  // attempts after the original send
	base    int64 // backoff base: attempt k waits base<<k cycles
	heap    []retryEntry
	seq     uint64 // tie-break within a cycle: enqueue order
	retried uint64 // retry injections accepted by the network
}

type retryEntry struct {
	at       int64
	seq      uint64
	src, dst int32
	attempt  int8
}

func newRetransmitter(net *router.Network, limit int, base int64) *retransmitter {
	return &retransmitter{net: net, limit: int8(limit), base: base}
}

// onDrop is wired as Network.OnDrop: schedule a retry unless the packet
// has exhausted its attempts. Unroutable packets never reach this hook
// (the network counts them separately — retrying into a partition is
// futile by construction).
func (rt *retransmitter) onDrop(p *router.Packet, now int64) {
	if p.Attempt >= rt.limit {
		return
	}
	rt.push(retryEntry{
		at:      now + rt.base<<uint(p.Attempt),
		seq:     rt.seq,
		src:     p.Src,
		dst:     p.Dst,
		attempt: p.Attempt + 1,
	})
	rt.seq++
}

// cycle re-offers every due retry; call once per cycle before pattern
// generation so retries claim NIC space ahead of fresh traffic.
func (rt *retransmitter) cycle(now int64) {
	for len(rt.heap) > 0 && rt.heap[0].at <= now {
		e := rt.pop()
		if rt.net.InjectRetry(int(e.src), int(e.dst), e.attempt) {
			rt.retried++
			continue
		}
		e.at = now + 1
		e.seq = rt.seq
		rt.seq++
		rt.push(e)
	}
}

// pending reports whether any retry is still queued (tests drain the
// fabric until both in-flight and pending-retry counts reach zero).
func (rt *retransmitter) pending() int { return len(rt.heap) }

// nextDue returns the earliest queued retry's due cycle; call only with
// pending() > 0. Elision horizons (Injector.NextArrival) use it as the
// retransmit next-arrival term.
func (rt *retransmitter) nextDue() int64 { return rt.heap[0].at }

func (e retryEntry) less(o retryEntry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (rt *retransmitter) push(e retryEntry) {
	rt.heap = append(rt.heap, e)
	i := len(rt.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !rt.heap[i].less(rt.heap[parent]) {
			break
		}
		rt.heap[i], rt.heap[parent] = rt.heap[parent], rt.heap[i]
		i = parent
	}
}

func (rt *retransmitter) pop() retryEntry {
	top := rt.heap[0]
	last := len(rt.heap) - 1
	rt.heap[0] = rt.heap[last]
	rt.heap = rt.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(rt.heap) && rt.heap[l].less(rt.heap[smallest]) {
			smallest = l
		}
		if r < len(rt.heap) && rt.heap[r].less(rt.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		rt.heap[i], rt.heap[smallest] = rt.heap[smallest], rt.heap[i]
		i = smallest
	}
}
