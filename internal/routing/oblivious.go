package routing

import (
	"cbar/internal/router"
)

// minAlg is MIN: oblivious hierarchical minimal routing (§IV-A). Optimal
// latency under uniform traffic, catastrophic under adversarial patterns
// (the single minimal global link between two groups saturates).
type minAlg struct{ router.NopHooks }

func (*minAlg) Name() string { return Min.String() }

func (*minAlg) Route(r *router.Router, p *router.Packet, port, vc int) router.Request {
	return request(r, p, r.MinimalOut(p))
}

// valiantAlg is VAL: Valiant routing to a random intermediate node
// (l g l - l g l), the paper's implementation choice ("misroute traffic
// to an intermediate node ..., not to the intermediate group", §V-A).
// Intra-group traffic routes minimally. The two local hops in the
// intermediate group act as local misrouting and avoid the ADV+h
// pathological local congestion.
type valiantAlg struct{ router.NopHooks }

func (*valiantAlg) Name() string { return Valiant.String() }

func (*valiantAlg) Route(r *router.Router, p *router.Packet, port, vc int) router.Request {
	t := r.Net().Topo
	if p.Inter < 0 && !p.Decided && t.IsInjectionPort(port) {
		p.Decided = true
		if r.Group() != r.DstGroup(p) { // at injection r is the source's router
			if inter := randomInterNode(r, p); inter >= 0 {
				commitValiant(p, inter)
			}
		}
	}
	return request(r, p, t.MinimalNextPort(r.ID, phaseDest(r, p)))
}

// randomInterNode picks a uniform intermediate node on a router outside
// the source group, other than the destination router (doc.go, "Valiant
// intermediates", says why the source group is excluded and the
// destination group is not). Under an active fault plan the intermediate
// must additionally be reachable from the deciding router (a packet
// steered toward a partitioned intermediate would only wander until the
// detour cap kills it); when the bounded rejection sampling finds no
// such router, -1 is returned and the caller falls back to the minimal
// path. Both branches reject alike, so an armed plan before its first
// event draws what no plan draws.
func randomInterNode(r *router.Router, p *router.Packet) int {
	t := r.Net().Topo
	srcG := t.GroupOfNode(int(p.Src))
	dstR := int(p.DstRouter)
	n := r.Net()
	if !n.FaultsActive() {
		for {
			ir := r.RNG.Intn(t.Routers)
			if t.GroupOf(ir) != srcG && ir != dstR {
				return t.NodeID(ir, 0)
			}
		}
	}
	for tries := 0; tries < 4*t.Routers; tries++ {
		ir := r.RNG.Intn(t.Routers)
		if t.GroupOf(ir) != srcG && ir != dstR && n.Reachable(r.ID, ir) {
			return t.NodeID(ir, 0)
		}
	}
	return -1
}
