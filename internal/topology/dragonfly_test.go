package topology

import (
	"testing"
	"testing/quick"
)

// paperParams are the Table I parameters of the paper: 31-port routers,
// 129 groups, 16512 nodes.
var paperParams = Params{P: 8, A: 16, H: 8}

func small() *Dragonfly { return MustNew(Params{P: 2, A: 4, H: 2}) }

func TestPaperScaleCounts(t *testing.T) {
	d := MustNew(paperParams)
	if d.Groups != 129 {
		t.Errorf("groups = %d, want 129", d.Groups)
	}
	if d.Routers != 129*16 {
		t.Errorf("routers = %d, want %d", d.Routers, 129*16)
	}
	if d.Nodes != 16512 {
		t.Errorf("nodes = %d, want 16512", d.Nodes)
	}
	if d.Radix() != 31 {
		t.Errorf("radix = %d, want 31", d.Radix())
	}
	if d.GlobalLinks != 128 {
		t.Errorf("global links per group = %d, want 128", d.GlobalLinks)
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 4, 2}}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) accepted invalid params", p)
		}
	}
	if _, err := New(Params{1, 1, 1}); err != nil {
		t.Errorf("minimal params rejected: %v", err)
	}
}

func TestPortClassification(t *testing.T) {
	d := small() // p=2, a=4, h=2 -> radix 7: inj {0,1}, local {2,3,4}, global {5,6}
	wantKind := []string{"inj", "inj", "local", "local", "local", "global", "global"}
	for port, want := range wantKind {
		got := "none"
		switch {
		case d.IsInjectionPort(port):
			got = "inj"
		case d.IsLocalPort(port):
			got = "local"
		case d.IsGlobalPort(port):
			got = "global"
		}
		if got != want {
			t.Errorf("port %d: kind %s, want %s", port, got, want)
		}
	}
	if d.IsInjectionPort(7) || d.IsLocalPort(7) || d.IsGlobalPort(7) {
		t.Error("port beyond radix classified")
	}
	if d.FirstLocalPort() != 2 || d.FirstGlobalPort() != 5 {
		t.Errorf("port bases %d/%d, want 2/5", d.FirstLocalPort(), d.FirstGlobalPort())
	}
}

func TestNodeRouterMaps(t *testing.T) {
	d := small()
	for n := 0; n < d.Nodes; n++ {
		r := d.RouterOfNode(n)
		c := d.ChannelOfNode(n)
		if d.NodeID(r, c) != n {
			t.Fatalf("node %d -> (r=%d,c=%d) does not round-trip", n, r, c)
		}
		if c < 0 || c >= d.P {
			t.Fatalf("node %d channel %d out of range", n, c)
		}
	}
	for r := 0; r < d.Routers; r++ {
		g, pos := d.GroupOf(r), d.PosOf(r)
		if d.RouterID(g, pos) != r {
			t.Fatalf("router %d -> (g=%d,pos=%d) does not round-trip", r, g, pos)
		}
	}
}

func TestLocalPortMapping(t *testing.T) {
	d := small()
	for from := 0; from < d.A; from++ {
		seen := map[int]bool{}
		for to := 0; to < d.A; to++ {
			if to == from {
				continue
			}
			port := d.LocalPortTo(from, to)
			if !d.IsLocalPort(port) {
				t.Fatalf("LocalPortTo(%d,%d)=%d not a local port", from, to, port)
			}
			if seen[port] {
				t.Fatalf("pos %d: port %d reused", from, port)
			}
			seen[port] = true
			if got := d.LocalPeerPos(from, port); got != to {
				t.Fatalf("LocalPeerPos(%d,%d)=%d, want %d", from, port, got, to)
			}
		}
		if len(seen) != d.A-1 {
			t.Fatalf("pos %d: %d local ports used, want %d", from, len(seen), d.A-1)
		}
	}
}

func TestLocalPortToPanicsOnSelf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LocalPortTo(i,i) did not panic")
		}
	}()
	small().LocalPortTo(2, 2)
}

// TestPalmtreeInvolution checks that the global wiring is a consistent
// physical cabling: following a global port and then the peer's returned
// port leads back to the origin.
func TestPalmtreeInvolution(t *testing.T) {
	for _, p := range []Params{{2, 4, 2}, {1, 2, 1}, {4, 8, 4}, paperParams} {
		d := MustNew(p)
		for r := 0; r < d.Routers; r++ {
			for k := 0; k < d.H; k++ {
				peer, peerPort := d.GlobalNeighbor(r, k)
				if !d.IsGlobalPort(peerPort) {
					t.Fatalf("%v: global neighbor port %d not global", p, peerPort)
				}
				back, backPort := d.GlobalNeighbor(peer, d.GlobalOrdinal(peerPort))
				if back != r || backPort != d.GlobalPort(k) {
					t.Fatalf("%v: wiring not involutive: r%d/k%d -> r%d/p%d -> r%d/p%d",
						p, r, k, peer, peerPort, back, backPort)
				}
				if d.GroupOf(peer) == d.GroupOf(r) {
					t.Fatalf("%v: global link within group %d", p, d.GroupOf(r))
				}
			}
		}
	}
}

// TestGlobalCompleteGraph checks every pair of groups is connected by
// exactly one global link.
func TestGlobalCompleteGraph(t *testing.T) {
	d := small()
	links := map[[2]int]int{}
	for r := 0; r < d.Routers; r++ {
		for k := 0; k < d.H; k++ {
			peer, _ := d.GlobalNeighbor(r, k)
			g1, g2 := d.GroupOf(r), d.GroupOf(peer)
			links[[2]int{g1, g2}]++
		}
	}
	for g1 := 0; g1 < d.Groups; g1++ {
		for g2 := 0; g2 < d.Groups; g2++ {
			if g1 == g2 {
				continue
			}
			if links[[2]int{g1, g2}] != 1 {
				t.Fatalf("groups %d->%d have %d links, want 1", g1, g2, links[[2]int{g1, g2}])
			}
		}
	}
}

func TestGlobalLinkToGroupConsistent(t *testing.T) {
	d := small()
	for g := 0; g < d.Groups; g++ {
		for dg := 0; dg < d.Groups; dg++ {
			if g == dg {
				continue
			}
			l := d.GlobalLinkToGroup(g, dg)
			if tgt := d.GlobalLinkTarget(g, l); tgt != dg {
				t.Fatalf("link %d of group %d targets %d, want %d", l, g, tgt, dg)
			}
			pos, k := d.GlobalLinkOwner(l)
			r := d.RouterID(g, pos)
			peer, _ := d.GlobalNeighbor(r, k)
			if d.GroupOf(peer) != dg {
				t.Fatalf("owner router %d port %d reaches group %d, want %d",
					r, k, d.GroupOf(peer), dg)
			}
		}
	}
}

// TestEntryRouter: the minimal path from group g enters group dg at the
// far end of the g->dg global link, so MinimalHops from that link's owner
// counts the global hop alone to the entry router and one local hop more
// to every other router of dg.
func TestEntryRouter(t *testing.T) {
	d := small()
	for g := 0; g < d.Groups; g++ {
		for dg := 0; dg < d.Groups; dg++ {
			if g == dg {
				continue
			}
			pos, k := d.GlobalLinkOwner(d.GlobalLinkToGroup(g, dg))
			owner := d.RouterID(g, pos)
			entry, _ := d.GlobalNeighbor(owner, k)
			for p := 0; p < d.A; p++ {
				want := 2
				if d.RouterID(dg, p) == entry {
					want = 1
				}
				if got := d.MinimalHops(owner, d.RouterID(dg, p)); got != want {
					t.Fatalf("MinimalHops(%d,%d)=%d, want %d (entry router %d)", owner, d.RouterID(dg, p), got, want, entry)
				}
			}
		}
	}
}

// TestMinimalRouteDelivers walks the minimal next-port function from every
// router to every node on a small network and checks that it terminates at
// the destination within 3 hops with the hierarchical l-g-l structure.
func TestMinimalRouteDelivers(t *testing.T) {
	d := small()
	for src := 0; src < d.Routers; src++ {
		for dst := 0; dst < d.Nodes; dst++ {
			r := src
			hops := 0
			localSeen, globalSeen := 0, 0
			for r != d.RouterOfNode(dst) {
				port := d.MinimalNextPort(r, dst)
				if d.IsInjectionPort(port) {
					t.Fatalf("ejection port %d before reaching dst router (r=%d dst=%d)", port, r, dst)
				}
				switch {
				case d.IsLocalPort(port):
					localSeen++
				case d.IsGlobalPort(port):
					globalSeen++
				}
				r, _ = d.Neighbor(r, port)
				hops++
				if hops > 3 {
					t.Fatalf("minimal route from r%d to n%d exceeded 3 hops", src, dst)
				}
			}
			port := d.MinimalNextPort(r, dst)
			if !d.IsInjectionPort(port) || port != d.ChannelOfNode(dst) {
				t.Fatalf("at dst router, port=%d, want ejection channel %d", port, d.ChannelOfNode(dst))
			}
			if globalSeen > 1 || localSeen > 2 {
				t.Fatalf("minimal route r%d->n%d used %d locals, %d globals", src, dst, localSeen, globalSeen)
			}
			if want := d.MinimalHops(src, d.RouterOfNode(dst)); hops != want {
				t.Fatalf("MinimalHops(r%d,r%d)=%d but walk took %d", src, d.RouterOfNode(dst), want, hops)
			}
		}
	}
}

func TestMinimalHopsBounds(t *testing.T) {
	d := MustNew(Params{P: 4, A: 8, H: 4})
	for r := 0; r < d.Routers; r += 7 {
		for dr := 0; dr < d.Routers; dr += 5 {
			h := d.MinimalHops(r, dr)
			switch {
			case r == dr && h != 0:
				t.Fatalf("same router hops %d", h)
			case r != dr && d.GroupOf(r) == d.GroupOf(dr) && h != 1:
				t.Fatalf("same group hops %d", h)
			case d.GroupOf(r) != d.GroupOf(dr) && (h < 1 || h > 3):
				t.Fatalf("inter-group hops %d", h)
			}
		}
	}
}

func TestNeighborPanicsOnInjection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Neighbor on injection port did not panic")
		}
	}()
	small().Neighbor(0, 0)
}

func TestQuickPalmtreeInvolution(t *testing.T) {
	d := MustNew(Params{P: 2, A: 6, H: 3})
	f := func(rr, kk uint16) bool {
		r := int(rr) % d.Routers
		k := int(kk) % d.H
		peer, peerPort := d.GlobalNeighbor(r, k)
		back, backPort := d.GlobalNeighbor(peer, d.GlobalOrdinal(peerPort))
		return back == r && backPort == d.GlobalPort(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMinimalNextPortValid(t *testing.T) {
	d := MustNew(Params{P: 3, A: 5, H: 2})
	f := func(rr, nn uint32) bool {
		r := int(rr) % d.Routers
		n := int(nn) % d.Nodes
		port := d.MinimalNextPort(r, n)
		if r == d.RouterOfNode(n) {
			return d.IsInjectionPort(port)
		}
		return d.IsLocalPort(port) || d.IsGlobalPort(port)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestStringer(t *testing.T) {
	s := small().String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
