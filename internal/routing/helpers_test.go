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
