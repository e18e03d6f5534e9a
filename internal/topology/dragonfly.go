// Package topology models the canonical Dragonfly topology used by the
// paper: a two-level hierarchical direct network whose first level (the
// group) is a complete graph of a routers and whose second level is a
// complete graph of groups, with exactly one global link between every
// pair of groups (PERCS-style). Global links are distributed over the
// routers of each group following the palmtree arrangement of Camarero,
// Vallejo and Beivide (ACM TACO 2014), the arrangement used in the paper.
//
// The package is pure data: it answers structural questions (who is wired
// to whom, which port reaches which neighbor, what is the minimal next
// hop) and carries no simulation state, so it can be shared freely across
// routers and goroutines.
package topology

import "fmt"

// Params are the three defining parameters of a Dragonfly network
// (Kim et al., ISCA 2008): p compute nodes per router, a routers per
// group and h global links per router. The canonical (maximum) size is
// used: g = a*h + 1 groups.
type Params struct {
	P int // nodes attached to each router
	A int // routers in each group
	H int // global links per router
}

// Validate reports whether the parameters describe a buildable network.
func (p Params) Validate() error {
	if p.P < 1 || p.A < 1 || p.H < 1 {
		return fmt.Errorf("topology: all of p,a,h must be >= 1, got p=%d a=%d h=%d", p.P, p.A, p.H)
	}
	return nil
}

// Dragonfly is an immutable description of a canonical Dragonfly network.
//
// Identifier conventions:
//   - groups are numbered 0..Groups-1;
//   - router r belongs to group r/A at position r%A within the group;
//   - node n attaches to router n/P through injection/ejection channel n%P;
//   - router ports are numbered injection [0,P), local [P, P+A-1),
//     global [P+A-1, P+A-1+H);
//   - the global links of a group are numbered l = pos*H + k in [0, A*H),
//     where pos is the owning router's position and k its global port
//     ordinal; with the palmtree arrangement link l of group g reaches
//     group (g+l+1) mod Groups.
type Dragonfly struct {
	Params
	Groups      int // number of groups, a*h+1
	Routers     int // total routers, Groups*A
	Nodes       int // total nodes, Routers*P
	GlobalLinks int // global links per group, A*H
	radix       int // ports per router, P + (A-1) + H
}

// New builds a canonical Dragonfly for the given parameters.
func New(p Params) (*Dragonfly, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := p.A*p.H + 1
	d := &Dragonfly{
		Params:      p,
		Groups:      g,
		Routers:     g * p.A,
		Nodes:       g * p.A * p.P,
		GlobalLinks: p.A * p.H,
		radix:       p.P + (p.A - 1) + p.H,
	}
	return d, nil
}

// MustNew is New panicking on error, for tests and fixed configurations.
func MustNew(p Params) *Dragonfly {
	d, err := New(p)
	if err != nil {
		panic(err)
	}
	return d
}

// Radix returns the number of router ports (injection + local + global).
func (d *Dragonfly) Radix() int { return d.radix }

// GroupOf returns the group of router r.
func (d *Dragonfly) GroupOf(r int) int { return r / d.A }

// PosOf returns router r's position within its group.
func (d *Dragonfly) PosOf(r int) int { return r % d.A }

// RouterID returns the router at position pos of group g.
func (d *Dragonfly) RouterID(g, pos int) int { return g*d.A + pos }

// RouterOfNode returns the router node n attaches to.
func (d *Dragonfly) RouterOfNode(n int) int { return n / d.P }

// ChannelOfNode returns node n's injection/ejection channel ordinal on its
// router, in [0, P).
func (d *Dragonfly) ChannelOfNode(n int) int { return n % d.P }

// NodeID returns the node on channel c of router r.
func (d *Dragonfly) NodeID(r, c int) int { return r*d.P + c }

// GroupOfNode returns the group node n belongs to.
func (d *Dragonfly) GroupOfNode(n int) int { return d.GroupOf(d.RouterOfNode(n)) }

// Port classification.

// IsInjectionPort reports whether port is an injection (input side) /
// ejection (output side) channel.
func (d *Dragonfly) IsInjectionPort(port int) bool { return port >= 0 && port < d.P }

// IsLocalPort reports whether port is an intra-group link.
func (d *Dragonfly) IsLocalPort(port int) bool { return port >= d.P && port < d.P+d.A-1 }

// IsGlobalPort reports whether port is an inter-group link.
func (d *Dragonfly) IsGlobalPort(port int) bool {
	return port >= d.P+d.A-1 && port < d.radix
}

// FirstLocalPort returns the index of the first local port.
func (d *Dragonfly) FirstLocalPort() int { return d.P }

// FirstGlobalPort returns the index of the first global port.
func (d *Dragonfly) FirstGlobalPort() int { return d.P + d.A - 1 }

// LocalPortTo returns the local port of the router at position from that
// reaches the router at position to within the same group. It panics if
// from == to, which would be a self-link.
func (d *Dragonfly) LocalPortTo(from, to int) int {
	if from == to {
		panic(fmt.Sprintf("topology: local self-link %d->%d", from, to))
	}
	if to < from {
		return d.P + to
	}
	return d.P + to - 1
}

// LocalPeerPos returns the position of the router reached through local
// port `port` from a router at position pos.
func (d *Dragonfly) LocalPeerPos(pos, port int) int {
	j := port - d.P
	if j >= pos {
		j++
	}
	return j
}

// GlobalOrdinal returns which of the H global ports `port` is, in [0,H).
func (d *Dragonfly) GlobalOrdinal(port int) int { return port - d.FirstGlobalPort() }

// GlobalPort returns the port index of global ordinal k in [0,H).
func (d *Dragonfly) GlobalPort(k int) int { return d.FirstGlobalPort() + k }

// GlobalLinkIndex returns the group-wide global-link index l = pos*H + k
// for global ordinal k of the router at position pos.
func (d *Dragonfly) GlobalLinkIndex(pos, k int) int { return pos*d.H + k }

// GlobalLinkOwner returns (pos, k): the owning router position and global
// port ordinal of group-wide link index l.
func (d *Dragonfly) GlobalLinkOwner(l int) (pos, k int) { return l / d.H, l % d.H }

// GlobalLinkTarget returns the group reached by global link l of group g
// under the palmtree arrangement.
func (d *Dragonfly) GlobalLinkTarget(g, l int) int {
	return (g + l + 1) % d.Groups
}

// GlobalLinkToGroup returns the group-wide index of the (unique) global
// link from group g to group dg. It panics if g == dg.
func (d *Dragonfly) GlobalLinkToGroup(g, dg int) int {
	if g == dg {
		panic(fmt.Sprintf("topology: no global link within group %d", g))
	}
	off := dg - g
	if off < 0 {
		off += d.Groups
	}
	return off - 1 // off in [1, A*H]
}

// CanonicalGlobalLink reports whether group-wide link l of group g is the
// canonical endpoint of its physical cable: the endpoint in the
// lower-numbered group. Every inter-group cable has exactly one canonical
// endpoint, so iterating (g, l) pairs filtered by this predicate
// enumerates each physical cable exactly once — the enumeration fault
// injection samples from.
func (d *Dragonfly) CanonicalGlobalLink(g, l int) bool {
	return g < d.GlobalLinkTarget(g, l)
}

// GlobalNeighbor returns the router and port on the far side of global
// port ordinal k of router r. The palmtree arrangement pairs link l of
// group g with link A*H-1-l of group (g+l+1) mod Groups, which makes the
// wiring a proper involution (the link is the same physical cable seen
// from both ends).
func (d *Dragonfly) GlobalNeighbor(r, k int) (peer, peerPort int) {
	g, pos := d.GroupOf(r), d.PosOf(r)
	l := d.GlobalLinkIndex(pos, k)
	g2 := d.GlobalLinkTarget(g, l)
	l2 := d.GlobalLinks - 1 - l
	pos2, k2 := d.GlobalLinkOwner(l2)
	return d.RouterID(g2, pos2), d.GlobalPort(k2)
}

// LocalNeighbor returns the router and port on the far side of local port
// `port` of router r.
func (d *Dragonfly) LocalNeighbor(r, port int) (peer, peerPort int) {
	g, pos := d.GroupOf(r), d.PosOf(r)
	j := d.LocalPeerPos(pos, port)
	return d.RouterID(g, j), d.LocalPortTo(j, pos)
}

// Neighbor returns the router and input port reached through output
// `port` of router r. Injection/ejection ports have no neighbor router;
// Neighbor panics for them.
func (d *Dragonfly) Neighbor(r, port int) (peer, peerPort int) {
	switch {
	case d.IsLocalPort(port):
		return d.LocalNeighbor(r, port)
	case d.IsGlobalPort(port):
		return d.GlobalNeighbor(r, d.GlobalOrdinal(port))
	default:
		panic(fmt.Sprintf("topology: port %d of router %d has no neighbor", port, r))
	}
}

// MinimalNextPort returns the output port of router r on the minimal path
// toward destination node dst: ejection if dst attaches here, otherwise
// the hierarchical l-g-l route (local hop to the global-link owner, the
// global link itself, then the destination-group local hop).
func (d *Dragonfly) MinimalNextPort(r, dst int) int {
	dr := d.RouterOfNode(dst)
	if dr == r {
		return d.ChannelOfNode(dst) // ejection channel
	}
	g, dg := d.GroupOf(r), d.GroupOf(dr)
	if g == dg {
		return d.LocalPortTo(d.PosOf(r), d.PosOf(dr))
	}
	l := d.GlobalLinkToGroup(g, dg)
	ownerPos, k := d.GlobalLinkOwner(l)
	if ownerPos == d.PosOf(r) {
		return d.GlobalPort(k)
	}
	return d.LocalPortTo(d.PosOf(r), ownerPos)
}

// MinimalHops returns the number of router-to-router hops on the minimal
// path from router r to router dr (0 for the same router; at most 3:
// local, global, local).
func (d *Dragonfly) MinimalHops(r, dr int) int {
	if r == dr {
		return 0
	}
	g, dg := d.GroupOf(r), d.GroupOf(dr)
	if g == dg {
		return 1
	}
	hops := 1 // the global hop
	l := d.GlobalLinkToGroup(g, dg)
	ownerPos, _ := d.GlobalLinkOwner(l)
	if ownerPos != d.PosOf(r) {
		hops++ // source-group local hop to the link owner
	}
	l2 := d.GlobalLinks - 1 - l
	entryPos, _ := d.GlobalLinkOwner(l2)
	if entryPos != d.PosOf(dr) {
		hops++ // destination-group local hop
	}
	return hops
}

// String summarizes the network size.
func (d *Dragonfly) String() string {
	return fmt.Sprintf("dragonfly(p=%d,a=%d,h=%d: %d groups, %d routers, %d nodes, radix %d)",
		d.P, d.A, d.H, d.Groups, d.Routers, d.Nodes, d.radix)
}
