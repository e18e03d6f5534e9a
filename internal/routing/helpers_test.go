package routing

import (
	"testing"

	"cbar/internal/router"
	"cbar/internal/topology"
)

// helperNet builds a bare network for direct helper-level tests.
func helperNet(t *testing.T, a Algo) *router.Network {
	t.Helper()
	cfg := router.DefaultConfig(topology.Params{P: 4, A: 4, H: 2})
	cfg.VCsLocal = RequiredLocalVCs(a)
	n, err := router.Build(cfg, MustNew(a, testOptions()), 5)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestLocalVCBase(t *testing.T) {
	cases := map[int8]int{0: 0, 1: 1, 2: 3, 3: 3}
	for gh, want := range cases { //lint:ordered per-key assertion on a pure function; order cannot affect outcomes
		if got := router.LocalVCBase(gh); got != want {
			t.Errorf("LocalVCBase(%d) = %d, want %d", gh, got, want)
		}
	}
}

// TestNextVCLadder walks the canonical paths and checks the requested VC
// indices follow the ascending-VC ladder of the package comment
// (routing.go).
func TestNextVCLadder(t *testing.T) {
	n := helperNet(t, Valiant) // 4 local VCs
	r := n.Routers[0]
	topo := n.Topo
	localPort := topo.FirstLocalPort()
	globalPort := topo.FirstGlobalPort()

	cases := []struct {
		name                   string
		globalHops, localGroup int8
		port                   int
		want                   int
	}{
		{"source-group local", 0, 0, localPort, 0},
		{"first global", 0, 0, globalPort, 0},
		{"intermediate arrival local", 1, 0, localPort, 1},
		{"intermediate second local", 1, 1, localPort, 2},
		{"second global", 1, 1, globalPort, 1},
		{"dest-group local after 2 globals", 2, 0, localPort, 3},
		{"ejection", 2, 1, 0, 0},
	}
	for _, c := range cases {
		p := &router.Packet{GlobalHops: c.globalHops, LocalHopsGroup: c.localGroup}
		if got := r.LadderVC(p, c.port); got != c.want {
			t.Errorf("%s: LadderVC = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestNextVCCapsAtPortWidth: with 3 local VCs, the dest-group hop after
// two globals caps at VC2.
func TestNextVCCapsAtPortWidth(t *testing.T) {
	n := helperNet(t, Base) // 3 local VCs
	r := n.Routers[0]
	p := &router.Packet{GlobalHops: 2, LocalHopsGroup: 0}
	if got := r.LadderVC(p, n.Topo.FirstLocalPort()); got != 2 {
		t.Fatalf("capped VC = %d, want 2", got)
	}
}

func TestCanGlobalMisroutePolicy(t *testing.T) {
	n := helperNet(t, Base)
	r := n.Routers[0] // group 0
	remote := int32(n.Topo.NodeID(n.Topo.RouterID(3, 0), 0))
	local := int32(n.Topo.NodeID(1, 0)) // router 1 is in group 0

	fresh := &router.Packet{Dst: remote}
	if !canGlobalMisroute(r, fresh) {
		t.Error("fresh inter-group packet denied global misroute")
	}
	already := &router.Packet{Dst: remote, GlobalMisroute: true}
	if canGlobalMisroute(r, already) {
		t.Error("second global misroute allowed")
	}
	hopped := &router.Packet{Dst: remote, GlobalHops: 1}
	if canGlobalMisroute(r, hopped) {
		t.Error("global misroute allowed after a global hop")
	}
	intra := &router.Packet{Dst: local}
	if canGlobalMisroute(r, intra) {
		t.Error("global misroute allowed for intra-group traffic")
	}
}

func TestCanLocalMisroutePolicy(t *testing.T) {
	n := helperNet(t, Base) // 3 local VCs
	topo := n.Topo
	r := n.Routers[0] // group 0, pos 0
	localMin := topo.FirstLocalPort()
	globalMin := topo.FirstGlobalPort()
	destInGroup := int32(topo.NodeID(1, 0))                  // dest group == group 0
	destRemote := int32(topo.NodeID(topo.RouterID(4, 1), 0)) // another group

	// Dest-group local hop, no global hops: allowed.
	p := &router.Packet{Dst: destInGroup}
	if !canLocalMisroute(r, p, localMin) {
		t.Error("dest-group local misroute denied")
	}
	// Minimal continuation not local: denied.
	if canLocalMisroute(r, p, globalMin) {
		t.Error("local misroute allowed with global minimal port")
	}
	// Already misrouted locally in this group: denied.
	p2 := &router.Packet{Dst: destInGroup, LocalMisThisGroup: true}
	if canLocalMisroute(r, p2, localMin) {
		t.Error("second local misroute in group allowed")
	}
	// Source group of inter-group traffic: denied.
	p3 := &router.Packet{Dst: destRemote}
	if canLocalMisroute(r, p3, localMin) {
		t.Error("source-group local misroute allowed")
	}
	// Intermediate group (one global hop): allowed, budget 1+0+1=2 <= 2.
	p4 := &router.Packet{Dst: destRemote, GlobalHops: 1}
	if !canLocalMisroute(r, p4, localMin) {
		t.Error("intermediate-group local misroute denied")
	}
	// Dest group after two globals with 3 local VCs: denied by the VC
	// budget guard (base 3 exceeds the ladder).
	p5 := &router.Packet{Dst: destInGroup, GlobalHops: 2}
	if canLocalMisroute(r, p5, localMin) {
		t.Error("local misroute allowed beyond VC budget")
	}
}

// TestCanLocalMisrouteWithFourVCs: VAL/PB-style routers (4 local VCs)
// lift the budget restriction for the 1-global-hop cases but still deny
// the 2-global-hop dest-group misroute (base 3 + 1 > 3).
func TestCanLocalMisrouteWithFourVCs(t *testing.T) {
	n := helperNet(t, Valiant)
	topo := n.Topo
	r := n.Routers[0]
	localMin := topo.FirstLocalPort()
	destInGroup := int32(topo.NodeID(1, 0))
	p := &router.Packet{Dst: destInGroup, GlobalHops: 2}
	if canLocalMisroute(r, p, localMin) {
		t.Error("4-VC router allowed misroute beyond ladder top")
	}
}

func TestPickGlobalRespectsEligibility(t *testing.T) {
	n := helperNet(t, Base)
	r := n.Routers[0]
	topo := n.Topo
	// No candidates.
	if _, ok := pickGlobal(r, -1, func(int) bool { return false }); ok {
		t.Error("pick with no eligible ports succeeded")
	}
	// Single candidate, excluding the other.
	only := topo.FirstGlobalPort()
	got, ok := pickGlobal(r, topo.FirstGlobalPort()+1, func(p int) bool { return p == only })
	if !ok || got != only {
		t.Errorf("pick = %d, %v", got, ok)
	}
	// Exclusion honored over many draws.
	for i := 0; i < 100; i++ {
		got, ok := pickGlobal(r, only, func(int) bool { return true })
		if !ok || got == only {
			t.Fatalf("excluded port picked: %d %v", got, ok)
		}
	}
}

func TestPickLocalUniformity(t *testing.T) {
	n := helperNet(t, Base)
	r := n.Routers[0]
	topo := n.Topo
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		got, ok := pickLocal(r, -1, func(int) bool { return true })
		if !ok {
			t.Fatal("no local pick")
		}
		counts[got]++
	}
	if len(counts) != topo.A-1 {
		t.Fatalf("picked %d distinct locals, want %d", len(counts), topo.A-1)
	}
	for port, c := range counts { //lint:ordered independent per-port starvation checks; any order finds the same violations
		if c < 3000/(topo.A-1)/2 {
			t.Fatalf("port %d starved: %d", port, c)
		}
	}
}

func TestMinGlobalLinkIndex(t *testing.T) {
	n := helperNet(t, ECtN)
	topo := n.Topo
	r := n.Routers[0] // group 0
	remote := &router.Packet{Dst: int32(topo.NodeID(topo.RouterID(2, 0), 0))}
	l, ok := minGlobalLinkIndex(topo, r, remote)
	if !ok {
		t.Fatal("remote dest returned no link")
	}
	if topo.GlobalLinkTarget(0, l) != 2 {
		t.Fatalf("link %d targets group %d, want 2", l, topo.GlobalLinkTarget(0, l))
	}
	intra := &router.Packet{Dst: int32(topo.NodeID(1, 0))}
	if _, ok := minGlobalLinkIndex(topo, r, intra); ok {
		t.Fatal("intra-group dest returned a link")
	}
}

// TestMarkDeviation checks misroute commitments are recorded only for
// nonminimal grants.
func TestMarkDeviation(t *testing.T) {
	n := helperNet(t, Base)
	topo := n.Topo
	r := n.Routers[0]
	dst := int32(topo.NodeID(topo.RouterID(3, 0), 0))
	min := topo.MinimalNextPort(r.ID, int(dst))

	p := &router.Packet{Dst: dst}
	markDeviation(r, p, min)
	if p.GlobalMisroute || p.LocalMisroutes != 0 {
		t.Fatal("minimal grant marked as deviation")
	}
	// A global port other than the minimal one.
	var alt int
	for k := 0; k < topo.H; k++ {
		if port := topo.GlobalPort(k); port != min {
			alt = port
			break
		}
	}
	markDeviation(r, p, alt)
	if !p.GlobalMisroute {
		t.Fatal("global deviation not marked")
	}
	// Local deviation.
	p2 := &router.Packet{Dst: dst}
	var altLocal int
	for j := 0; j < topo.A-1; j++ {
		if port := topo.FirstLocalPort() + j; port != min {
			altLocal = port
			break
		}
	}
	markDeviation(r, p2, altLocal)
	if p2.LocalMisroutes != 1 || !p2.LocalMisThisGroup {
		t.Fatal("local deviation not marked")
	}
}

// TestCreditAlternativeFloorAndNormalisation pins the two halves of the
// credit trigger OLM and Hybrid share. The floor: with no more than one
// packet outstanding on the minimal port nothing misroutes, whatever the
// percentage, and no random number is drawn. The normalisation: ports
// are compared by occupancy relative to their own capacity, so a global
// port twice as deep as the local minimal port and holding twice the
// phits is at the same relative occupancy — not "cheaper" at 100 % —
// while one point more of slack picks it, which a raw phit comparison
// (32 against 16) never would.
func TestCreditAlternativeFloorAndNormalisation(t *testing.T) {
	// MIN carries the traffic, so every packet goes where it is sent.
	cfg := router.DefaultConfig(topology.Params{P: 4, A: 4, H: 2})
	cfg.VCsLocal, cfg.VCsInjection = 3, 3
	cfg.BufGlobal = (2*(cfg.BufOut+cfg.VCsLocal*cfg.BufLocal) - cfg.BufOut) / cfg.VCsGlobal
	n, err := router.Build(cfg, MustNew(Min, DefaultOptions()), 5)
	if err != nil {
		t.Fatal(err)
	}
	topo := n.Topo
	r := n.Routers[0] // group 0, position 0
	size := int32(cfg.PacketSize)

	// viaLocal is a node whose minimal path from r starts on a local
	// port; viaGlobal[k] one whose path starts on r's k-th global port.
	viaLocal, viaGlobal := -1, []int{-1, -1}
	for dg := 1; dg < topo.Groups; dg++ {
		pos, k := topo.GlobalLinkOwner(topo.GlobalLinkToGroup(0, dg))
		dst := topo.NodeID(topo.RouterID(dg, 0), 0)
		if pos == 0 {
			viaGlobal[k] = dst
		} else if viaLocal < 0 {
			viaLocal = dst
		}
	}
	local := topo.MinimalNextPort(r.ID, viaLocal)
	g0, g1 := topo.GlobalPort(0), topo.GlobalPort(1)
	if r.Kind(local) != router.Local || r.OccupancyCap(g0) != 2*r.OccupancyCap(local) {
		t.Fatalf("setup: minimal port kind %v, capacities local %d global %d", r.Kind(local), r.OccupancyCap(local), r.OccupancyCap(g0))
	}
	probe := func() *router.Packet {
		return &router.Packet{Dst: int32(viaLocal), DstRouter: int32(topo.RouterOfNode(viaLocal))}
	}
	const anyPct = 1 << 20 // every port is "cheaper" at this percentage

	// The floor. One packet granted: output space and credits reserved,
	// two packets' worth of estimate. Once it has left the output buffer
	// only its credit shadow remains: one packet.
	n.Inject(0, viaLocal)
	n.Step()
	if occ := r.Occupancy(local); occ != 2*size {
		t.Fatalf("after the grant the minimal port holds %d phits, want %d", occ, 2*size)
	}
	if _, ok := creditAlternative(r, probe(), local, anyPct); !ok {
		t.Fatal("two packets' worth outstanding and every port cheaper, yet no alternative")
	}
	for r.Occupancy(local) != size {
		n.Step()
		if n.Now() > 100 {
			t.Fatal("the minimal port never came down to one packet outstanding")
		}
	}
	rng0 := *r.RNG
	if out, ok := creditAlternative(r, probe(), local, anyPct); ok {
		t.Fatalf("misrouted to %d with one packet outstanding on the minimal port", out)
	}
	if *r.RNG != rng0 {
		t.Fatal("the floor drew a random number")
	}
	if !n.Drain(10000) {
		t.Fatal("did not drain")
	}

	// The normalisation. Two packets granted on each global port in one
	// cycle (Speedup 2), one on the local port once node 0's injection
	// link is free again; nothing has left an output buffer yet.
	for node, dst := range []int{viaGlobal[0], viaGlobal[0], viaGlobal[1], viaGlobal[1]} {
		n.Inject(node, dst)
	}
	for range size {
		n.Step()
	}
	n.Inject(0, viaLocal)
	n.Step()
	if l, a, b := r.Occupancy(local), r.Occupancy(g0), r.Occupancy(g1); l != 2*size || a != 4*size || b != 4*size {
		t.Fatalf("setup: occupancies local %d global %d/%d, want %d and %d/%d", l, a, b, 2*size, 4*size, 4*size)
	}
	rng0 = *r.RNG
	if out, ok := creditAlternative(r, probe(), local, 100); ok {
		t.Fatalf("port %d at the minimal port's relative occupancy counted as cheaper", out)
	}
	if *r.RNG != rng0 {
		t.Fatal("a draw without a candidate")
	}
	if out, ok := creditAlternative(r, probe(), local, 101); !ok || r.Kind(out) != router.Global {
		t.Fatalf("at 101%% a global port at equal relative occupancy must qualify; got port %d ok %v", out, ok)
	}
}
