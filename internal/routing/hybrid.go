package routing

import (
	"cbar/internal/router"
)

// hybridAlg is the paper's Hybrid mechanism (§III-C): contention counters
// and credit occupancy are two independent misrouting triggers, each with
// its own threshold, and traffic is routed nonminimally when either
// fires. Because each trigger can be set higher for the same final
// accuracy, Hybrid peaks the throughput of the studied mechanisms
// (Fig. 5a) at the cost of slightly worse uniform-traffic latency than
// Base (credits occasionally divert traffic at low load).
type hybridAlg struct {
	contentionHooks
	th     int32
	relPct int64
}

func newHybrid(o Options) *hybridAlg {
	return &hybridAlg{th: o.HybridTh, relPct: int64(o.HybridRelPct)}
}

func (*hybridAlg) Name() string { return Hybrid.String() }

func (a *hybridAlg) Route(r *router.Router, p *router.Packet, port, vc int) router.Request {
	min := r.MinimalOut(p)
	if r.Kind(min) != router.Injection {
		// Base's trigger first, then OLM's: either one misroutes.
		out, ok := a.contentionAlternative(r, p, min, a.th)
		if !ok {
			out, ok = creditAlternative(r, p, min, a.relPct)
		}
		if ok {
			return request(r, p, out)
		}
	}
	return request(r, p, min)
}
