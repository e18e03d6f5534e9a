package router

import (
	"slices"
	"strings"
	"testing"
)

// buildFaulty builds the small test fabric with a fault plan attached.
func buildFaulty(t *testing.T, fc FaultConfig) *Network {
	t.Helper()
	cfg := smallCfg()
	cfg.Faults = fc
	n, err := Build(cfg, testMin{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// floodCycle injects one packet from every node to a rotating
// cross-group partner and steps once. The group offset advances every
// cycle, so over any window of Groups-1 cycles every global link in the
// fabric carries traffic — whatever link a plan fails is loaded when it
// dies.
func floodCycle(t *testing.T, n *Network) {
	t.Helper()
	nodes := n.Topo.Nodes
	groupNodes := n.Topo.P * n.Topo.A
	off := groupNodes * (1 + int(n.Now())%(n.Topo.Groups-1))
	for src := 0; src < nodes; src++ {
		n.Inject(src, (src+off)%nodes)
	}
	n.Step()
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("cycle %d: %v", n.Now(), err)
	}
}

// conserve checks the packet conservation identity after a full drain.
func conserve(t *testing.T, n *Network) {
	t.Helper()
	if !n.Drain(1 << 20) {
		t.Fatalf("network did not drain: %d in flight", n.InFlight)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("post-drain invariants: %v", err)
	}
	if n.NumGenerated != n.NumDelivered+n.NumDropped+n.NumUnroutable {
		t.Fatalf("conservation broken: generated %d != delivered %d + dropped %d + unroutable %d",
			n.NumGenerated, n.NumDelivered, n.NumDropped, n.NumUnroutable)
	}
}

// TestFaultConfigValidateRejects pins the validation errors: every
// malformed plan is refused at Build with a message naming the problem.
func TestFaultConfigValidateRejects(t *testing.T) {
	// The small test fabric: 36 routers, ports [0,7), link ports [2,7).
	cases := []struct {
		name string
		fc   FaultConfig
		want string
	}{
		{"bad-kind", FaultConfig{Events: []FaultEvent{{Kind: 9, Router: 0, Port: 5, Cycle: 1}}}, "invalid kind"},
		{"router-high", FaultConfig{Events: []FaultEvent{{Kind: LinkDown, Router: 36, Port: 5, Cycle: 1}}}, "outside"},
		{"router-negative", FaultConfig{Events: []FaultEvent{{Kind: RouterDown, Router: -1, Cycle: 1}}}, "outside"},
		{"port-injection", FaultConfig{Events: []FaultEvent{{Kind: LinkDown, Router: 0, Port: 1, Cycle: 1}}}, "not a link port"},
		{"port-high", FaultConfig{Events: []FaultEvent{{Kind: LinkUp, Router: 0, Port: 7, Cycle: 1}}}, "not a link port"},
		{"cycle-negative", FaultConfig{Events: []FaultEvent{{Kind: LinkDown, Router: 0, Port: 5, Cycle: -1}}}, "< 0"},
		{"random-pct-high", FaultConfig{RandomPct: 101}, "outside [0,100]"},
		{"random-at-negative", FaultConfig{RandomPct: 5, RandomAt: -1}, "< 0"},
		{"retry-limit-high", FaultConfig{RetryLimit: maxRetryLimit + 1}, "retry limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg()
			cfg.Faults = tc.fc
			_, err := Build(cfg, testMin{}, 1)
			if err == nil {
				t.Fatalf("Build accepted invalid plan %+v", tc.fc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRetryResolvedDefaults pins the backoff default: RetryBase resolves
// to a worst-case one-way path (local + global latency).
func TestRetryResolvedDefaults(t *testing.T) {
	cfg := smallCfg()
	got := FaultConfig{RetryLimit: 3}.Resolved(cfg)
	if want := int64(cfg.LatencyLocal + cfg.LatencyGlobal); got.RetryBase != want {
		t.Fatalf("resolved RetryBase = %d, want %d", got.RetryBase, want)
	}
	// An explicit base survives resolution.
	got = FaultConfig{RetryLimit: 3, RetryBase: 7}.Resolved(cfg)
	if got.RetryBase != 7 {
		t.Fatalf("explicit RetryBase overwritten to %d", got.RetryBase)
	}
}

// TestLinkDownKillsAndRecovers drives a loaded fabric through a
// LinkDown/LinkUp pair: packets committed to the dying link are killed
// and counted, the liveness flag flips down and back up on the
// scheduled cycles, the credit accounting survives every cycle, and the
// drained network conserves packets exactly.
func TestLinkDownKillsAndRecovers(t *testing.T) {
	const port = 5 // first global port of the small fabric
	n := buildFaulty(t, FaultConfig{Events: []FaultEvent{
		{Kind: LinkDown, Router: 0, Port: port, Cycle: 100},
		{Kind: LinkUp, Router: 0, Port: port, Cycle: 300},
	}})
	for cyc := 0; cyc < 400; cyc++ {
		// An event at cycle C is applied inside the Step that advances
		// C -> C+1, so the flag is observable from Now() == C+1 on.
		wantAlive := n.Now() <= 100 || n.Now() > 300
		if got := n.Routers[0].PortAlive(port); got != wantAlive {
			t.Fatalf("cycle %d: PortAlive(0,%d) = %v, want %v", n.Now(), port, got, wantAlive)
		}
		if got := n.GlobalLinkAlive(0, 0); got != wantAlive {
			t.Fatalf("cycle %d: GlobalLinkAlive(0,0) = %v, want %v", n.Now(), got, wantAlive)
		}
		floodCycle(t, n)
	}
	if n.NumDropped == 0 {
		t.Fatal("loaded LinkDown killed nothing; the case proves nothing")
	}
	if n.NumUnroutable != 0 {
		t.Fatalf("one dead cable cannot partition this fabric, yet %d unroutable", n.NumUnroutable)
	}
	conserve(t, n)
}

// TestRouterDownPartitionsNodes pins the partition semantics: a down
// router blocks its own sources, packets to its nodes are counted
// unroutable instead of wandering, reachability reflects the component
// map, and repair restores everything.
func TestRouterDownPartitionsNodes(t *testing.T) {
	const r = 3 // down router; its nodes are 6 and 7 (P=2)
	n := buildFaulty(t, FaultConfig{Events: []FaultEvent{
		{Kind: RouterDown, Router: r, Cycle: 50},
		{Kind: RouterUp, Router: r, Cycle: 200},
	}})
	for cyc := 0; cyc < 120; cyc++ {
		floodCycle(t, n)
	}
	// Mid-outage: the router is down and partitioned.
	if n.Routers[r].Alive() {
		t.Fatal("router still alive mid-outage")
	}
	if n.Reachable(0, r) {
		t.Fatal("down router still reachable")
	}
	if n.NumUnroutable == 0 {
		t.Fatal("flooding a dead router produced no unroutable packets")
	}
	blocked := n.NumBlocked
	if n.Inject(6, 0) {
		t.Fatal("a dead router's NIC accepted a packet")
	}
	if n.NumBlocked != blocked+1 {
		t.Fatalf("blocked count %d, want %d", n.NumBlocked, blocked+1)
	}
	gen, unr := n.NumGenerated, n.NumUnroutable
	if !n.Inject(0, 6) {
		t.Fatal("packet to a partitioned destination was refused instead of counted")
	}
	if n.NumGenerated != gen+1 || n.NumUnroutable != unr+1 {
		t.Fatalf("unroutable inject counted generated %d unroutable %d, want %d and %d",
			n.NumGenerated, n.NumUnroutable, gen+1, unr+1)
	}
	for cyc := 0; cyc < 120; cyc++ {
		floodCycle(t, n)
	}
	// Post-repair: alive, reachable, accepting traffic.
	if !n.Routers[r].Alive() || !n.Reachable(0, r) {
		t.Fatal("repair did not restore the router")
	}
	if !n.Inject(6, 0) {
		t.Fatal("repaired router's NIC refused a packet")
	}
	conserve(t, n)
}

// TestRandomPlanDeterministic pins the random-cable expansion: the same
// (topology, pct, seed) triple fails the same cables on every build, a
// different seed fails a different set, and the failed-cable count
// matches the rounded percentage (both endpoints of each cable die).
func TestRandomPlanDeterministic(t *testing.T) {
	deadPorts := func(seed uint64) []string {
		n := buildFaulty(t, FaultConfig{RandomPct: 5, RandomAt: 10, RandomSeed: seed})
		for cyc := 0; cyc < 20; cyc++ {
			n.Step()
		}
		var dead []string
		for _, r := range n.Routers {
			for port := n.Topo.FirstGlobalPort(); port < n.Topo.Radix(); port++ {
				if !r.PortAlive(port) {
					dead = append(dead, string(rune('0'+r.ID))+":"+string(rune('0'+port)))
				}
			}
		}
		return dead
	}
	a, b := deadPorts(42), deadPorts(42)
	if len(a) == 0 {
		t.Fatal("random plan failed no cables")
	}
	// 36 physical cables in the small fabric: 5% rounds to 2 cables,
	// which is 4 dead ports (one per endpoint).
	if len(a) != 4 {
		t.Fatalf("5%% of 36 cables should kill 4 ports, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	c := deadPorts(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("seeds 42 and 43 failed identical cables %v", a)
	}
}

// TestRouterDownKillsNICBacklog: the packets still waiting in a dying
// router's NIC queues exist only as records, and the kill must turn
// each into the whole packet OnDrop promises — once, in ascending id
// order with the in-fabric victims, with the fields Inject was given —
// at either worker count, conservation intact.
func TestRouterDownKillsNICBacklog(t *testing.T) {
	const r, down = 3, 40 // router 3's nodes are 6 and 7 (P=2)
	type drop struct {
		id       uint64
		gen      int64
		src, dst int32
		attempt  int8
	}
	run := func(workers int) (drops, queued []drop) {
		cfg := smallCfg()
		cfg.Workers = workers
		cfg.Faults = FaultConfig{Events: []FaultEvent{{Kind: RouterDown, Router: r, Cycle: down}}}
		n, err := Build(cfg, testMin{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		n.OnDrop = func(p *Packet, now int64) {
			if now != down || p.Size != int32(cfg.PacketSize) || int(p.DstRouter) != n.Topo.RouterOfNode(int(p.Dst)) {
				t.Fatalf("workers=%d: dropped %v at cycle %d with Size %d, DstRouter %d", workers, p, now, p.Size, p.DstRouter)
			}
			drops = append(drops, drop{p.ID, p.GenTime, p.Src, p.Dst, p.Attempt})
		}
		// A packet a cycle into each NIC, which drains one per eight.
		sent, ids := map[int32][]drop{}, uint64(0)
		for n.Now() <= down {
			for src := int32(6); src <= 7; src++ {
				if n.Now() == down {
					// The step from here applies the kill: what the NIC
					// holds now, the last it was sent, dies as records.
					backlog := n.NICBacklog(int(src))
					if backlog < 20 {
						t.Fatalf("workers=%d: NIC %d holds %d at the kill", workers, src, backlog)
					}
					queued = append(queued, sent[src][len(sent[src])-backlog:]...)
					continue
				}
				d := drop{ids, n.Now(), src, int32(20 + ids%40), int8(ids % 2)}
				if !n.InjectRetry(int(d.src), int(d.dst), d.attempt) {
					t.Fatalf("workers=%d: inject %d refused", workers, d.id)
				}
				sent[src] = append(sent[src], d)
				ids++
			}
			n.Step()
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("workers=%d cycle %d: %v", workers, n.Now(), err)
			}
		}
		if left := n.NICBacklog(6) + n.NICBacklog(7); left != 0 {
			t.Fatalf("workers=%d: %d records outlived their router", workers, left)
		}
		conserve(t, n)
		if n.NumDropped != uint64(len(drops)) {
			t.Fatalf("workers=%d: %d dropped, %d reported", workers, n.NumDropped, len(drops))
		}
		return drops, queued
	}
	drops, queued := run(1)
	for i := 1; i < len(drops); i++ {
		if drops[i-1].id >= drops[i].id {
			t.Fatalf("OnDrop order: id %d before id %d", drops[i-1].id, drops[i].id)
		}
	}
	for _, q := range queued {
		if !slices.Contains(drops, q) {
			t.Fatalf("record %+v, queued at the kill, is not among the %d drops as injected", q, len(drops))
		}
	}
	if par, _ := run(2); !slices.Equal(par, drops) {
		t.Fatalf("workers=2 reported %d drops, not the %d of workers=1 in their order", len(par), len(drops))
	}
}
