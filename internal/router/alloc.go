package router

// The separable batch allocator (§IV-B of the paper): each iteration runs
// an input stage — every input port nominates one of its requesting VCs,
// round-robin — and an output stage — every output port grants one of the
// nominating inputs, round-robin. The network runs Config.Speedup
// iterations per cycle, modeling the 2× internal frequency speedup of the
// paper's router, which compensates for the well-known matching loss of
// separable allocators and mitigates head-of-line blocking.

// allocate runs a single allocation iteration on this router. Only the
// input ports that registered a request in this cycle's routePhase are
// scanned (reqPorts); requests persist across the Speedup iterations.
func (r *Router) allocate() {
	if len(r.reqPorts) == 0 {
		return
	}
	size := int32(r.net.Cfg.PacketSize)

	// Input stage: nominate one eligible requesting VC per input port,
	// gathering nominations per output port (ascending input order,
	// which the output-stage round-robin scan relies on).
	r.dirtyOut = r.dirtyOut[:0]
	for _, port16 := range r.reqPorts {
		port := int(port16)
		ip := &r.in[port]
		nv := len(ip.vcs)
		vc := r.rrVC[port]
		for k := 0; k < nv; k++ {
			if vc++; vc >= nv {
				vc = 0
			}
			p := ip.vcs[vc].headPkt()
			if p == nil || p.Granted || !p.reqValid {
				continue
			}
			if !r.CanAccept(int(p.reqOut), int(p.reqVC), size) {
				continue
			}
			r.s1[port] = int8(vc)
			out := int(p.reqOut)
			if r.candLen[out] == 0 {
				r.dirtyOut = append(r.dirtyOut, p.reqOut)
			}
			r.candIn[out][r.candLen[out]] = int16(port)
			r.candLen[out]++
			break
		}
	}

	// Output stage: grant one input per output port, round-robin.
	for _, out16 := range r.dirtyOut {
		out := int(out16)
		nc := r.candLen[out]
		r.candLen[out] = 0
		if nc == 0 {
			continue
		}
		cands := r.candIn[out][:nc]
		o := &r.out[out]
		pick := int(cands[0])
		for _, in := range cands {
			if int(in) > o.rrIn {
				pick = int(in)
				break
			}
		}
		r.grant(pick, int(r.s1[pick]), out)
	}
}

// grant commits a switch allocation: reserves output-buffer space and
// downstream credits, schedules the pipeline completion and the input
// tail departure, updates hop counters and round-robin state, and informs
// the algorithm.
func (r *Router) grant(port, vc, out int) {
	p := r.in[port].vcs[vc].headPkt()
	outVC := int(p.reqVC)
	o := &r.out[out]
	size := p.Size
	now := r.net.now
	cfg := &r.net.Cfg

	o.credits[outVC] -= size
	o.outFree -= size
	r.occDelta(out, 2*size) // both the credit and the out-buffer reservation count
	if o.occ > o.markTh && p.ECNMarks < 127 {
		// The port's occupancy (with this packet's own reservation
		// counted) is past the mark threshold: the packet carries the
		// congestion mark to its destination (congestion.go). The compare
		// is never true on a port that does not mark (markTh = noMark).
		p.ECNMarks++
	}
	p.Granted = true
	if p.reqEscape {
		// The grant went through the fault escape path: spend one unit
		// of the packet's detour budget (see faults.go).
		p.FaultDetours++
		p.reqEscape = false
	}
	r.in[port].unrouted--
	r.unrouted--
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
		event{kind: evPipeDone, router: int32(r.ID), port: int16(out), vc: int8(outVC), pkt: p})

	// The tail leaves the input buffer once it has both arrived
	// (cut-through) and streamed through the crossbar at the internal
	// speedup rate.
	transfer := (int64(size) + int64(cfg.Speedup) - 1) / int64(cfg.Speedup)
	tail := now + transfer
	if tail <= p.TailArrive {
		tail = p.TailArrive + 1
	}
	r.net.scheduleFrom(r.shard, tail,
		event{kind: evTailLeave, router: int32(r.ID), port: int16(port), vc: int8(vc), pkt: p})

	r.rrVC[port] = vc
	o.rrIn = port
	r.net.Alg.OnGrant(r, p, port, vc, out, outVC)
}

// linkPhase starts serializing the next staged packet on every idle
// output link. Only the ports on the stagedPorts dirty-list are visited
// (in ascending order, matching the original all-port scan); ports whose
// queue has drained are pruned in passing.
func (r *Router) linkPhase() {
	if r.staged == 0 {
		return
	}
	now := r.net.now
	live := r.stagedPorts[:0]
	for _, out := range r.stagedPorts {
		o := &r.out[out]
		if o.qLen() == 0 {
			r.stagedIn[out] = false
			continue
		}
		live = append(live, out)
		if o.linkFreeAt > now {
			continue
		}
		e := o.qPop()
		r.staged--
		size := int64(e.pkt.Size)
		o.linkFreeAt = now + size
		o.BusyCycles += size
		r.net.scheduleFrom(r.shard, now+size,
			event{kind: evOutFree, router: int32(r.ID), port: out, size: e.pkt.Size})
		if o.kind == Injection {
			// Ejection channel: the packet is consumed by the node.
			r.net.scheduleFrom(r.shard, now+size,
				event{kind: evDeliver, router: int32(r.ID), port: out, pkt: e.pkt})
		} else {
			r.net.scheduleFrom(r.shard, now+o.latency,
				event{kind: evHeadArrive, router: o.peerRouter, port: o.peerPort, vc: e.vc, pkt: e.pkt})
		}
	}
	r.stagedPorts = live
}
