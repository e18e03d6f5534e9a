package routing

import "cbar/internal/router"

// pbAlg is PiggyBacking (Jiang, Kim, Dally, ISCA 2009), the paper's
// source-routed congestion-based baseline. Every router continuously
// flags each of its global channels saturated when the channel's credit
// pool is nearly exhausted — fewer than PBSatPackets packets' worth of
// credits remain. (The threshold is relative to the credit capacity, not
// absolute occupancy: on a 100-cycle global link even uncongested flow
// keeps bandwidth×RTT worth of credits in flight, the §II-B uncertainty,
// so an absolute threshold would flag healthy links.) The flags are
// shared with all routers of the group, modeling the piggybacked
// broadcast as free and instantaneous.
//
// A flag is not stored anywhere: the deciding router reads the owning
// router's O(1) occupancy and compares — the broadcast bit is, at every
// instant, exactly that comparison.
//
// At injection the source router chooses once, UGAL-style, between the
// minimal path and a Valiant path through a random intermediate node:
// Valiant is chosen when the minimal global channel is flagged saturated,
// or when the hop-weighted occupancy of the minimal first hop exceeds
// that of the Valiant first hop by more than an offset. The decision is
// final (source routing), which is what exposes PB to the routing
// oscillations of Figure 9: the control variable (occupancy) is a
// consequence of the earlier decisions it drives.
type pbAlg struct {
	router.NopHooks
	satPackets int32
	satPhits   int32
	offset     int32
}

// pbUgalOffsetPhits is the constant offset of PB's UGAL-style source
// comparison, in phits, biasing ties toward the minimal path.
const pbUgalOffsetPhits = 32

func newPB(o Options) *pbAlg {
	return &pbAlg{offset: pbUgalOffsetPhits, satPackets: o.PBSatPackets}
}

func (*pbAlg) Name() string { return PB.String() }

func (a *pbAlg) Attach(n *router.Network) {
	// Saturated when the outstanding phits exceed the global link's
	// bandwidth-delay product by more than satPackets packets: even at
	// full utilization a healthy link keeps only ~BDP phits of credits
	// in flight (the §II-B shadow), so anything beyond BDP + slack is
	// genuine downstream queueing. The threshold is intentionally
	// independent of the buffer size — tying it to capacity would make
	// the flag unreachable with deep buffers (Figure 8's 2048-phit
	// case) or permanently set with shallow ones.
	bdp := int32(2*n.Cfg.LatencyGlobal + n.Cfg.PacketSize)
	a.satPhits = bdp + a.satPackets*int32(n.Cfg.PacketSize)
}

func (a *pbAlg) Route(r *router.Router, p *router.Packet, port, vc int) router.Request {
	t := r.Net().Topo
	if !p.Decided && t.IsInjectionPort(port) {
		p.Decided = true
		a.decide(r, p)
	}
	return request(r, p, t.MinimalNextPort(r.ID, phaseDest(r, p)))
}

// decide makes PB's one-time source decision for an inter-group packet.
func (a *pbAlg) decide(r *router.Router, p *router.Packet) {
	t := r.Net().Topo
	g, dg := r.Group(), r.DstGroup(p)
	if g == dg {
		return // intra-group traffic is always minimal
	}
	inter := randomInterNode(r, p)
	if inter < 0 {
		return // no live intermediate reachable: stay minimal
	}
	interR := t.RouterOfNode(inter)

	minLink := t.GlobalLinkToGroup(g, dg)
	// The saturation flag is the owning router's occupancy against the
	// threshold, read where it is used: the link's owner is a router of
	// r's own group (so of its shard), and occupancy moves only at event
	// handling and at grants, never inside the route phase this runs in.
	// A dead minimal channel reads as saturated: the piggybacked
	// broadcast carries liveness exactly as it carries the credit flag,
	// so the source diverts those flows onto Valiant paths instead of
	// shoveling them at the router-level escape detour.
	pos, k := t.GlobalLinkOwner(minLink)
	saturated := r.Net().Group(g)[pos].Occupancy(t.GlobalPort(k)) > a.satPhits ||
		!r.Net().GlobalLinkAlive(g, minLink)

	minFirst := t.MinimalNextPort(r.ID, int(p.Dst))
	valFirst := t.MinimalNextPort(r.ID, inter)
	qMin := int64(r.Occupancy(minFirst))
	qVal := int64(r.Occupancy(valFirst))
	hMin := int64(t.MinimalHops(r.ID, int(p.DstRouter)) + 1)
	hVal := int64(t.MinimalHops(r.ID, interR) + t.MinimalHops(interR, int(p.DstRouter)) + 1)

	if saturated || qMin*hMin > qVal*hVal+int64(a.offset) {
		commitValiant(p, inter)
	}
}
