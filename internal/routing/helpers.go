package routing

import (
	"cbar/internal/router"
	"cbar/internal/topology"
)

// request packages an output choice with its ascending VC.
func request(r *router.Router, p *router.Packet, out int) router.Request {
	return router.Request{Out: out, VC: r.LadderVC(p, out), OK: true}
}

// minimalOut returns the minimal output toward the packet's final
// destination from router r (memoised per queue stay by the fabric).
func minimalOut(r *router.Router, p *router.Packet) int {
	return r.MinimalOut(p)
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
	t := r.Net().Topo
	return t.GroupOf(r.ID) != t.GroupOfNode(int(p.Dst))
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
	t := r.Net().Topo
	inDestGroup := t.GroupOf(r.ID) == t.GroupOfNode(int(p.Dst))
	return inDestGroup || p.GlobalHops > 0
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

// markDeviation records misroute commitments at grant time by comparing
// the granted output with the packet's minimal continuation. Algorithms
// whose nonminimal decisions happen in-transit (OLM, Base, Hybrid, ECtN)
// use it as their OnGrant hook.
func markDeviation(r *router.Router, p *router.Packet, out int) {
	min := minimalOut(r, p)
	if out == min {
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
	g := t.GroupOf(r.ID)
	dg := t.GroupOfNode(int(p.Dst))
	if g == dg {
		return 0, false
	}
	return t.GlobalLinkToGroup(g, dg), true
}
