package router

import "math/bits"

// The separable batch allocator (§IV-B of the paper): each iteration runs
// an input stage — every input port nominates one of its requesting VCs,
// round-robin — and an output stage — every output port grants one of the
// nominating inputs, round-robin. The network runs Config.Speedup
// iterations per cycle, modeling the 2× internal frequency speedup of the
// paper's router, which compensates for the well-known matching loss of
// separable allocators and mitigates head-of-line blocking. Requests are
// rows of the router's head table (headReq), not packet state, and only
// the slots routePhase found admissible (Router.grantable) are nominated.

// allocate runs a single allocation iteration on this router and
// reports whether it granted anything. Only the input ports with a
// grantable slot are scanned (reqPorts), each walking its VCs
// round-robin over the grantable bits. The first iteration (recheck
// false) trusts routePhase's verdict, since nothing has been granted
// since; a later one re-runs CanAccept and drops the slots a grant made
// inadmissible, and a port left with nothing to nominate leaves reqPorts.
// No grant means no nomination, and what a nomination reads (rrVC,
// credits, outFree, the requests) moves only in grant: the cycle's
// remaining iterations would be the same no-op, so stepShard skips them.
func (r *Router) allocate(recheck bool) bool {
	if r.grantable.count == 0 {
		return false
	}
	cw := len(r.reqPorts.words) // words per output in cand

	// Input stage: nominate one grantable VC per input port, gathering
	// nominations per output port.
	for wi, w := range r.reqPorts.scan() {
		for ; w != 0; w &= w - 1 {
			port := int(r.reqPorts.idAt(wi, w))
			ip := &r.in[port]
			vcs := int(ip.nvc)
			vc := int(r.rrVC[port])
			nominated := false
			for range vcs {
				if vc++; vc >= vcs {
					vc = 0
				}
				slot := int32(ip.slot0) + int32(vc)
				if !r.grantable.has(slot) {
					continue
				}
				rq := r.req[slot]
				if recheck && !r.CanAccept(int(rq.out), int(rq.vc)) {
					r.grantable.drop(slot)
					continue
				}
				r.s1[port] = int8(vc)
				r.dirtyOut.add(int32(rq.out))
				r.cand[int(rq.out)*cw+port>>6] |= 1 << (port & 63)
				nominated = true
				break
			}
			if !nominated {
				r.reqPorts.drop(int32(port))
			}
		}
	}
	if r.dirtyOut.count == 0 {
		return false
	}

	// Output stage: grant one input per output port, round-robin. Grants
	// on distinct outputs touch distinct inputs and ports and commute.
	for wi, w := range r.dirtyOut.scan() {
		for ; w != 0; w &= w - 1 {
			out := int(r.dirtyOut.idAt(wi, w))
			cand := r.cand[out*cw : (out+1)*cw]
			pick := rrPick(cand, int(r.out[out].rrIn))
			clear(cand)
			r.grant(pick, int(r.s1[pick]), out)
		}
	}
	r.dirtyOut.clear()
	return true
}

// rrPick is the output arbiter's round-robin choice among the candidate
// inputs (a non-empty bitset): the lowest candidate above the pointer
// rr, else the lowest.
func rrPick(cand []uint64, rr int) int {
	lowest := -1
	for wi, w := range cand {
		for ; w != 0; w &= w - 1 {
			in := wi<<6 + bits.TrailingZeros64(w)
			if in > rr {
				return in
			}
			if lowest < 0 {
				lowest = in
			}
		}
	}
	return lowest
}

// grant commits a switch allocation: reserves output-buffer space and
// downstream credits, schedules the pipeline completion and the input
// tail departure, updates hop counters and round-robin state, and informs
// the algorithm.
func (r *Router) grant(port, vc, out int) {
	slot := int(r.in[port].slot0) + vc
	ref, rq := r.heads[slot], r.req[slot]
	p := r.net.pkt(ref)
	outVC := int(rq.vc)
	o := &r.out[out]
	size := r.net.size
	now := r.net.now
	cfg := &r.net.Cfg

	r.credits[int(o.cred0)+outVC] -= size
	o.outFree -= size
	r.occDelta(out, 2*size) // both the credit and the out-buffer reservation count
	if o.occ > r.net.classes[o.kind].markTh && p.ECNMarks < 127 {
		// The port's occupancy (with this packet's own reservation
		// counted) is past the mark threshold: the packet carries the
		// congestion mark to its destination (congestion.go). The compare
		// is never true on a port that does not mark (markTh = noMark).
		p.ECNMarks++
	}
	if rq.escape {
		// The grant went through the fault escape path: spend one unit
		// of the packet's detour budget (see faultAdjust).
		p.FaultDetours++
	}
	// Granted: the head stays until its tail leaves, no longer unrouted,
	// its request spent — a later iteration must not nominate it again.
	r.unroutedHeads.drop(int32(slot))
	r.grantable.drop(int32(slot))
	r.req[slot] = headReq{}
	r.parkable = false

	switch o.kind {
	case Local:
		p.LocalHops++
		p.LocalHopsGroup++
		p.TotalHops++
	case Global:
		p.GlobalHops++
		p.TotalHops++
	}

	// Header reaches the output buffer after the router pipeline.
	r.net.scheduleFrom(r.shard, now+int64(cfg.PipelineLatency),
		event{kind: evPipeDone, router: int32(r.ID), port: int16(out), vc: int8(outVC), pkt: ref})

	// The tail leaves the input buffer once it has both arrived
	// (cut-through) and streamed through the crossbar at the internal
	// speedup rate.
	transfer := (int64(size) + int64(cfg.Speedup) - 1) / int64(cfg.Speedup)
	tail := now + transfer
	if tail <= p.TailArrive {
		tail = p.TailArrive + 1
	}
	r.net.scheduleFrom(r.shard, tail,
		event{kind: evTailLeave, router: int32(r.ID), port: int16(port), vc: int8(vc), pkt: ref})

	r.rrVC[port] = int8(vc)
	o.rrIn = int16(port)
	r.net.Alg.OnGrant(r, p, port, vc, out, outVC)
}

// linkPhase starts serializing the next staged packet on every idle
// output link. Only the ports of the stagedPorts set are visited (in
// ascending order, matching the original all-port scan); a port leaves
// the set as its queue empties.
func (r *Router) linkPhase() {
	now := r.net.now
	for wi, w := range r.stagedPorts.scan() {
		for ; w != 0; w &= w - 1 {
			out := r.stagedPorts.idAt(wi, w)
			o := &r.out[out]
			if o.linkFreeAt > now {
				continue
			}
			e := o.q.pop(r.stageRing(int(out)))
			if o.q.len() == 0 {
				r.stagedPorts.drop(out)
			}
			size := int64(r.net.size)
			o.linkFreeAt = now + size
			o.BusyCycles += size
			r.net.scheduleFrom(r.shard, now+size,
				event{kind: evOutFree, router: int32(r.ID), port: int16(out)})
			if o.kind == Injection {
				// Ejection channel: the packet is consumed by the node.
				r.net.scheduleFrom(r.shard, now+size,
					event{kind: evDeliver, router: int32(r.ID), port: int16(out), pkt: e.pkt})
			} else {
				r.net.scheduleFrom(r.shard, now+r.net.classes[o.kind].latency,
					event{kind: evHeadArrive, router: o.peerRouter, port: o.peerPort, vc: e.vc, pkt: e.pkt})
			}
		}
	}
}
