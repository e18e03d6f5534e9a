package routing

import (
	"cbar/internal/router"
	"cbar/internal/topology"
)

// request packages an output choice with its ascending VC.
func request(r *router.Router, p *router.Packet, out int) router.Request {
	return router.Request{Out: out, VC: r.LadderVC(p, out), OK: true}
}

// phaseDest returns the node the packet is currently steering toward:
// the Valiant intermediate while ToInter, the real destination otherwise.
// It also performs the phase flip when the packet reaches the
// intermediate router.
func phaseDest(r *router.Router, p *router.Packet) int {
	if p.ToInter {
		if int(p.Inter) >= 0 && r.Net().Topo.RouterOfNode(int(p.Inter)) == r.ID {
			p.ToInter = false
			return int(p.Dst)
		}
		return int(p.Inter)
	}
	return int(p.Dst)
}

// canGlobalMisroute reports whether the misrouting policy permits a
// nonminimal global hop for p at router r: inter-group traffic still in
// its source-group phase (no global hop taken yet) that has not already
// committed to a nonminimal global path. Together with minimal routing
// this limits the packet to one source-group local hop before the global
// decision, the PAR-style "at injection or after a first hop" rule.
func canGlobalMisroute(r *router.Router, p *router.Packet) bool {
	if p.GlobalMisroute || p.GlobalHops != 0 {
		return false
	}
	return r.Group() != r.DstGroup(p)
}

// canLocalMisroute reports whether the policy permits a nonminimal local
// hop: the minimal continuation is a local hop in the intermediate or
// destination group (never the source group of inter-group traffic), no
// local misroute was taken in this group yet, and the hop after the
// misroute still fits the ascending-VC ladder (otherwise the misroute
// could close a virtual-channel dependency cycle).
func canLocalMisroute(r *router.Router, p *router.Packet, minOut int) bool {
	if p.LocalMisThisGroup || r.Kind(minOut) != router.Local {
		return false
	}
	// The misroute is hop base+LocalHopsGroup; the forced minimal hop
	// after it is base+LocalHopsGroup+1, which must stay within the
	// local VC count.
	if router.LocalVCBase(p.GlobalHops)+int(p.LocalHopsGroup)+1 > r.OutVCs(minOut)-1 {
		return false
	}
	return p.GlobalHops > 0 || r.Group() == r.DstGroup(p)
}

// pickGlobal samples one global port of r (router.Router.PickPort over
// the global port range), excluding `exclude` (pass -1 to exclude none),
// among those satisfying eligible. Dead ports (failed links or routers,
// see router/faults.go) are never candidates: the adaptive algorithms
// misroute around faults for free. ok=false when no candidate qualifies.
func pickGlobal(r *router.Router, exclude int, eligible func(port int) bool) (int, bool) {
	t := r.Net().Topo
	return r.PickPort(t.FirstGlobalPort(), t.H, exclude, eligible)
}

// pickLocal is pickGlobal over r's local ports.
func pickLocal(r *router.Router, exclude int, eligible func(port int) bool) (int, bool) {
	t := r.Net().Topo
	return r.PickPort(t.FirstLocalPort(), t.A-1, exclude, eligible)
}

// alternative is the §IV-A misrouting policy every in-transit adaptive
// mechanism shares: once its trigger has fired for a packet whose
// minimal output is min, a nonminimal global port if the packet may
// still take one, else a nonminimal local port if it may take that,
// sampled uniformly among the ports the mechanism's own `eligible`
// predicate accepts. The mechanisms differ only in the trigger and the
// predicate. ok=false leaves the packet on its minimal path.
func alternative(r *router.Router, p *router.Packet, min int, eligible func(port int) bool) (int, bool) {
	if canGlobalMisroute(r, p) {
		if out, ok := pickGlobal(r, min, eligible); ok {
			return out, true
		}
	}
	if canLocalMisroute(r, p, min) {
		return pickLocal(r, min, eligible)
	}
	return 0, false
}

// creditAlternative is the credit trigger of OLM and of Hybrid's second
// component, and the policy under it: when the minimal port's occupancy
// estimate is past the floor, the candidates are the ports whose
// relative occupancy is below relPct% of the minimal port's.
func creditAlternative(r *router.Router, p *router.Packet, min int, relPct int64) (int, bool) {
	qMin := int64(r.Occupancy(min))
	// The relative comparison only engages once more than one packet is
	// outstanding on the minimal port: a single packet's credit shadow
	// (still in flight on the link round trip) is not congestion, and
	// without the floor OLM would misroute a large share of light
	// uniform traffic instead of the paper's small penalty over MIN.
	if qMin <= int64(r.Net().Cfg.PacketSize) {
		return 0, false
	}
	// Occupancies are normalized by each port's capacity before the
	// percentage comparison: the minimal continuation is often a local
	// port (128-phit depth at Table I) while the nonminimal candidates
	// are global ports (544-phit depth); comparing raw phit counts would
	// stop all misrouting once the deep global buffers carry a moderate
	// load.
	capMin := int64(r.OccupancyCap(min))
	return alternative(r, p, min, func(out int) bool {
		return int64(r.Occupancy(out))*capMin*100 < relPct*qMin*int64(r.OccupancyCap(out))
	})
}

// commitValiant records a source decision (VAL's, PB's) to route p
// through intermediate node inter: the packet steers toward it first
// (phaseDest) and counts as globally misrouted from here.
func commitValiant(p *router.Packet, inter int) {
	p.Inter = int32(inter)
	p.ToInter = true
	p.GlobalMisroute = true
}

// markDeviation records misroute commitments at grant time by comparing
// the granted output with the packet's minimal continuation. Algorithms
// whose nonminimal decisions happen in-transit (OLM, Base, Hybrid, ECtN)
// use it as their OnGrant hook.
func markDeviation(r *router.Router, p *router.Packet, out int) {
	if out == r.MinimalOut(p) {
		return
	}
	switch r.Kind(out) {
	case router.Global:
		p.GlobalMisroute = true
	case router.Local:
		p.LocalMisroutes++
		p.LocalMisThisGroup = true
	}
}

// minGlobalLinkIndex returns the group-wide index of the global link the
// packet would minimally leave r's group through, and ok=false for
// intra-group destinations.
func minGlobalLinkIndex(t *topology.Dragonfly, r *router.Router, p *router.Packet) (int, bool) {
	g, dg := r.Group(), r.DstGroup(p)
	if g == dg {
		return 0, false
	}
	return t.GlobalLinkToGroup(g, dg), true
}
