package router

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cbar/internal/topology"
)

// testMin is a self-contained minimal-routing algorithm used to exercise
// the fabric without importing the routing package (which would be a
// dependency cycle in spirit: routing builds on router).
type testMin struct{ NopHooks }

func (testMin) Name() string { return "test-min" }

func (testMin) Route(r *Router, p *Packet, port, vc int) Request {
	out := r.Net().Topo.MinimalNextPort(r.ID, int(p.Dst))
	outVC := 0
	switch r.Kind(out) {
	case Local:
		// Stage-based ascending VCs: source-group hops on VC0,
		// destination-group hops above them (deadlock avoidance).
		if p.GlobalHops > 0 {
			outVC = 1
		}
	case Global:
		outVC = int(p.GlobalHops)
	}
	if outVC >= r.OutVCs(out) {
		outVC = r.OutVCs(out) - 1
	}
	return Request{Out: out, VC: outVC, OK: true}
}

func smallParams() topology.Params { return topology.Params{P: 2, A: 4, H: 2} }

func smallCfg() Config {
	cfg := DefaultConfig(smallParams())
	return cfg
}

func buildSmall(t *testing.T) *Network {
	t.Helper()
	n, err := Build(smallCfg(), testMin{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigDefaultsMatchTableI(t *testing.T) {
	cfg := DefaultConfig(topology.Params{P: 8, A: 16, H: 8})
	if cfg.PacketSize != 8 || cfg.BufLocal != 32 || cfg.BufGlobal != 256 || cfg.BufOut != 32 {
		t.Fatalf("buffer defaults wrong: %+v", cfg)
	}
	if cfg.LatencyLocal != 10 || cfg.LatencyGlobal != 100 {
		t.Fatalf("latency defaults wrong: %+v", cfg)
	}
	if cfg.PipelineLatency != 5 || cfg.Speedup != 2 {
		t.Fatalf("pipeline/speedup defaults wrong: %+v", cfg)
	}
	if cfg.VCsLocal != 3 || cfg.VCsGlobal != 2 || cfg.VCsInjection != 3 {
		t.Fatalf("VC defaults wrong: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMeanVCsPerPort checks the §VI-A quantity: the Table I router has
// 85 VCs over 31 ports = 2.74.
func TestMeanVCsPerPort(t *testing.T) {
	cfg := DefaultConfig(topology.Params{P: 8, A: 16, H: 8})
	got := cfg.MeanVCsPerPort()
	if got < 2.73 || got > 2.75 {
		t.Fatalf("mean VCs per port = %.3f, want 2.74", got)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	base := smallCfg()
	mut := []func(*Config){
		func(c *Config) { c.PacketSize = 0 },
		func(c *Config) { c.VCsLocal = 0 },
		func(c *Config) { c.VCsGlobal = 0 },
		func(c *Config) { c.VCsInjection = 0 },
		func(c *Config) { c.BufLocal = base.PacketSize - 1 },
		func(c *Config) { c.BufGlobal = 0 },
		func(c *Config) { c.BufInjection = 1 },
		func(c *Config) { c.BufOut = 2 },
		func(c *Config) { c.LatencyLocal = 0 },
		func(c *Config) { c.LatencyGlobal = -1 },
		func(c *Config) { c.PipelineLatency = 0 },
		func(c *Config) { c.Speedup = 0 },
		func(c *Config) { c.NICQueuePackets = 0 },
		func(c *Config) { c.Topo = topology.Params{} },
		func(c *Config) { c.Topo = topology.Params{P: 1, A: 182, H: 181} }, // 32 943 groups
	}
	for i, m := range mut {
		c := base
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestConfigValidateRingBound: a VC queue and an output stage index
// their rings in 16 bits, so Validate takes a buffer of math.MaxInt16
// packets and rejects one packet more, on an input VC and on the output
// buffer alike.
func TestConfigValidateRingBound(t *testing.T) {
	base := smallCfg()
	for _, buf := range []func(*Config) *int{
		func(c *Config) *int { return &c.BufGlobal },
		func(c *Config) *int { return &c.BufOut },
	} {
		c := base
		*buf(&c) = math.MaxInt16 * c.PacketSize
		if err := c.Validate(); err != nil {
			t.Fatalf("a ring of %d packets rejected: %v", math.MaxInt16, err)
		}
		*buf(&c) += c.PacketSize
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "a ring indexes") {
			t.Fatalf("a ring of %d packets: Validate returned %v", math.MaxInt16+1, err)
		}
	}
}

func TestPortKindHelpers(t *testing.T) {
	cfg := smallCfg()
	if cfg.VCsFor(Injection) != 3 || cfg.VCsFor(Local) != 3 || cfg.VCsFor(Global) != 2 {
		t.Fatal("VCsFor wrong")
	}
	if cfg.BufFor(Injection) != 32 || cfg.BufFor(Local) != 32 || cfg.BufFor(Global) != 256 {
		t.Fatal("BufFor wrong")
	}
	if cfg.LatencyFor(Injection) != 0 || cfg.LatencyFor(Local) != 10 || cfg.LatencyFor(Global) != 100 {
		t.Fatal("LatencyFor wrong")
	}
	for _, k := range []PortKind{Injection, Local, Global, PortKind(99)} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
}

func TestVCQueueBasics(t *testing.T) {
	q := newVCQueue(32, 8) // four packet slots
	if !q.empty() || q.free() != 4 {
		t.Fatal("fresh queue wrong")
	}
	p1 := &Packet{ID: 1, Size: 8}
	p2 := &Packet{ID: 2, Size: 8}
	q.push(p1)
	q.push(p2)
	if q.len() != 2 || q.free() != 2 {
		t.Fatalf("len %d free %d", q.len(), q.free())
	}
	if q.headPkt() != p1 {
		t.Fatal("head not FIFO")
	}
	if got := q.pop(); got != p1 {
		t.Fatal("pop not FIFO")
	}
	if q.headPkt() != p2 || q.free() != 3 {
		t.Fatal("after pop wrong")
	}
}

func TestVCQueueRingWrap(t *testing.T) {
	// Capacity 3 packets; interleave push/pop so the ring head wraps
	// several times while staying within capacity.
	q := newVCQueue(24, 8)
	var id uint64
	mk := func() *Packet { id++; return &Packet{ID: id, Size: 8} }
	q.push(mk())
	prev := uint64(0)
	for round := 0; round < 10; round++ {
		q.push(mk())
		p := q.pop()
		if p.ID <= prev {
			t.Fatalf("FIFO violated: %d after %d", p.ID, prev)
		}
		prev = p.ID
	}
	// Drain in order.
	for !q.empty() {
		p := q.pop()
		if p.ID <= prev {
			t.Fatalf("FIFO violated on drain: %d after %d", p.ID, prev)
		}
		prev = p.ID
	}
	if q.free() != 3 {
		t.Fatalf("free %d slots after drain, want 3", q.free())
	}
}

func TestVCQueueOverflowPanics(t *testing.T) {
	q := newVCQueue(8, 8)
	q.push(&Packet{Size: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	q.push(&Packet{Size: 8})
}

func TestVCQueuePopEmptyPanics(t *testing.T) {
	q := newVCQueue(8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("pop empty did not panic")
		}
	}()
	q.pop()
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(Config{}, testMin{}, 1); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Build(smallCfg(), nil, 1); err == nil {
		t.Fatal("nil algorithm accepted")
	}
}

// TestOutputStagesCutAtFirstPush: a router holds no output stage row
// until its first output push, which cuts one of BufOut/PacketSize
// entries per port, capacity-capped; a router that forwards nothing
// never gets one.
func TestOutputStagesCutAtFirstPush(t *testing.T) {
	n := buildSmall(t)
	for _, r := range n.Routers {
		if r.stages != nil {
			t.Fatalf("router %d has a stage row before any push", r.ID)
		}
	}
	if !n.Inject(0, 1) { // both nodes on router 0
		t.Fatal("inject refused")
	}
	n.Run(40)
	if n.NumDelivered != 1 {
		t.Fatalf("%d delivered, want 1", n.NumDelivered)
	}
	r0 := n.Routers[0]
	k := n.Cfg.BufOut / n.Cfg.PacketSize
	if want := len(r0.out) * k; len(r0.stages) != want || cap(r0.stages) != want {
		t.Fatalf("stage row %d/%d entries, want %d (%d ports of %d)", len(r0.stages), cap(r0.stages), want, len(r0.out), k)
	}
	for _, r := range n.Routers[1:] {
		if r.stages != nil {
			t.Fatalf("router %d forwarded nothing but holds a stage row", r.ID)
		}
	}
}

// TestRouterRowsTile: every router's per-VC and per-port state is spans
// of its rows, laid out alike in every router. At tiny and Small scale,
// with 3 and 4 local VCs, the slots' rings tile Router.rings in slot
// order, each ringSlots(BufFor(kind), PacketSize) long; the output
// ports' credit spans tile Router.credits in port order, one counter per
// downstream VC (one on an ejection channel), each starting full; and
// once cut, the stage rings tile Router.stages, stageLen entries each.
// Every row is capacity-capped, so no span reaches the next router's.
func TestRouterRowsTile(t *testing.T) {
	for _, p := range []topology.Params{{P: 4, A: 4, H: 2}, {P: 4, A: 8, H: 4}} {
		for _, vcs := range []int{3, 4} {
			cfg := DefaultConfig(p)
			cfg.VCsLocal = vcs
			n, err := Build(cfg, testMin{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%+v, %d local VCs", p, vcs)
			for _, r := range n.Routers {
				if err := checkRows(r); err != nil {
					t.Fatalf("%s: before the first push: %v", name, err)
				}
				r.cutStages()
				if err := checkRows(r); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
}

// checkRows checks that r's queues, ports and stages tile its rows (see
// TestRouterRowsTile); the stage row only once it is cut.
func checkRows(r *Router) error {
	n, cfg := r.net, &r.net.Cfg
	if len(r.rings) != cap(r.rings) || len(r.credits) != cap(r.credits) || len(r.stages) != cap(r.stages) {
		return fmt.Errorf("router %d: rows not capacity-capped", r.ID)
	}
	at := 0
	for slot := range r.vqs {
		ring := r.ring(slot)
		want := ringSlots(cfg.BufFor(r.in[n.slotPort[slot]].kind), cfg.PacketSize)
		if len(ring) != want || &ring[0] != &r.rings[at] {
			return fmt.Errorf("router %d slot %d: ring of %d at %p, want %d at entry %d", r.ID, slot, len(ring), &ring[0], want, at)
		}
		at += want
	}
	if at != len(r.rings) {
		return fmt.Errorf("router %d: rings cover %d of %d ring entries", r.ID, at, len(r.rings))
	}
	at = 0
	for port := range r.out {
		o := &r.out[port]
		want := cfg.VCsFor(o.kind)
		if o.kind == Injection {
			want = 1
		}
		if int(o.cred0) != at || int(o.ncred) != want {
			return fmt.Errorf("router %d out %d: credits [%d, +%d), want [%d, +%d)", r.ID, port, o.cred0, o.ncred, at, want)
		}
		for v := range want {
			if c := r.Credits(port, v); c != r.class(port).vcCap {
				return fmt.Errorf("router %d out %d vc %d: built with %d credits, want %d", r.ID, port, v, c, r.class(port).vcCap)
			}
		}
		at += want
	}
	if at != len(r.credits) {
		return fmt.Errorf("router %d: ports cover %d of %d credit counters", r.ID, at, len(r.credits))
	}
	if r.stages == nil {
		return nil
	}
	k := max(cfg.BufOut/cfg.PacketSize, 1)
	for port := range r.out {
		if st := r.stageRing(port); len(st) != k || &st[0] != &r.stages[port*k] {
			return fmt.Errorf("router %d out %d: stage of %d entries, want %d at entry %d", r.ID, port, len(st), k, port*k)
		}
	}
	if len(r.out)*k != len(r.stages) {
		return fmt.Errorf("router %d: stages cover %d of %d entries", r.ID, len(r.out)*k, len(r.stages))
	}
	return nil
}

// TestSameRouterDeliveryTiming pins the end-to-end timing of the simplest
// possible transfer: src and dst attached to the same router.
//
//	cycle 0: NIC -> injection VC, routed, granted
//	cycle 5: pipeline done, ejection link starts
//	cycle 13: tail consumed -> delivered
func TestSameRouterDeliveryTiming(t *testing.T) {
	n := buildSmall(t)
	src := 0
	dst := 1 // same router (P=2)
	if n.Topo.RouterOfNode(src) != n.Topo.RouterOfNode(dst) {
		t.Fatal("test nodes not on same router")
	}
	if !n.Inject(src, dst) {
		t.Fatal("inject refused")
	}
	var deliveredAt int64 = -1
	n.OnDeliver = func(p *Packet, now int64) { deliveredAt = now }
	n.Run(40)
	if deliveredAt != 13 {
		t.Fatalf("delivered at %d, want 13", deliveredAt)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLocalHopDeliveryTiming pins the timing across one local link:
// grant@0, pipe@5, link 5..12, head arrives 15, grant@15, pipe@20,
// ejection 20..27, delivered 28.
func TestLocalHopDeliveryTiming(t *testing.T) {
	n := buildSmall(t)
	src := 0                // router 0
	dst := n.Cfg.Topo.P * 1 // first node of router 1 (same group)
	if n.Topo.RouterOfNode(dst) != 1 {
		t.Fatal("dst not on router 1")
	}
	if !n.Inject(src, dst) {
		t.Fatal("inject refused")
	}
	var deliveredAt int64 = -1
	n.OnDeliver = func(p *Packet, now int64) { deliveredAt = now }
	n.Run(60)
	if deliveredAt != 28 {
		t.Fatalf("delivered at %d, want 28", deliveredAt)
	}
}

// TestCreditReturnTiming checks credits replenish exactly one round trip
// after the downstream tail departs.
func TestCreditReturnTiming(t *testing.T) {
	n := buildSmall(t)
	r0 := n.Routers[0]
	out := n.Topo.MinimalNextPort(0, n.Cfg.Topo.P*1) // local port to router 1
	if r0.Kind(out) != Local {
		t.Fatal("expected local port")
	}
	before := r0.Credits(out, 0)
	if !n.Inject(0, n.Cfg.Topo.P*1) {
		t.Fatal("inject refused")
	}
	// Track the credit dip and its restoration cycle.
	dipped := false
	restored := int64(-1)
	for c := int64(0); c < 80; c++ {
		n.Step()
		cur := r0.Credits(out, 0)
		if cur < before {
			dipped = true
		}
		if dipped && restored < 0 && cur == before {
			restored = c
		}
	}
	if !dipped {
		t.Fatal("credits never consumed")
	}
	// Grant at 0 consumes credits; the packet's head arrives downstream
	// at 15 and its tail at 22; it is granted ejection at 15, so its
	// tail leaves the downstream input at max(15+4, 22+1)=23; the
	// credit travels back 10 cycles and is processed while stepping
	// cycle 33.
	if restored != 33 {
		t.Fatalf("credits restored at cycle %d, want 33", restored)
	}
}

// TestNICQueueBound checks Inject refuses when the NIC queue is full and
// counts blocked attempts.
func TestNICQueueBound(t *testing.T) {
	cfg := smallCfg()
	cfg.NICQueuePackets = 4
	n, err := Build(cfg, testMin{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for i := 0; i < 10; i++ {
		if n.Inject(0, 3) {
			ok++
		}
	}
	if ok != 4 {
		t.Fatalf("accepted %d, want 4", ok)
	}
	if n.NumBlocked != 6 {
		t.Fatalf("blocked %d, want 6", n.NumBlocked)
	}
}

// TestConservationUnderRandomTraffic drives uniform random traffic and
// checks packet conservation, invariants and full drain (progress).
func TestConservationUnderRandomTraffic(t *testing.T) {
	n := buildSmall(t)
	rng := newTestRand(7)
	for cycle := 0; cycle < 500; cycle++ {
		for node := 0; node < n.Topo.Nodes; node++ {
			if rng()%100 < 10 { // ~10% packet rate
				dst := int(rng() % uint64(n.Topo.Nodes))
				if dst != node {
					n.Inject(node, dst)
				}
			}
		}
		n.Step()
		if cycle%100 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
	}
	if n.NumGenerated == 0 {
		t.Fatal("no packets generated")
	}
	if !n.Drain(20000) {
		t.Fatalf("network did not drain: %d in flight", n.InFlight)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n.NumDelivered != n.NumGenerated {
		t.Fatalf("delivered %d != generated %d", n.NumDelivered, n.NumGenerated)
	}
}

// newTestRand returns a tiny xorshift closure, avoiding a dependency on
// internal/rng from this package's tests.
func newTestRand(seed uint64) func() uint64 {
	s := seed
	return func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
}

// TestAllocatorRoundRobinFairness drives two injection VC streams of one
// router toward the same output and checks both make progress.
func TestAllocatorRoundRobinFairness(t *testing.T) {
	n := buildSmall(t)
	dst := n.Cfg.Topo.P * 1 // node on router 1
	perSrc := map[int32]int{}
	n.OnDeliver = func(p *Packet, _ int64) { perSrc[p.Src]++ }
	for cycle := 0; cycle < 400; cycle++ {
		n.Inject(0, dst)
		n.Inject(1, dst) // other node on router 0
		n.Step()
	}
	n.Drain(20000)
	if perSrc[0] == 0 || perSrc[1] == 0 {
		t.Fatalf("starvation: %v", perSrc)
	}
	ratio := float64(perSrc[0]) / float64(perSrc[1])
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("unfair service: %v", perSrc)
	}
}

// TestHopCounters checks local/global hop accounting across a 3-hop
// minimal inter-group path.
func TestHopCounters(t *testing.T) {
	n := buildSmall(t)
	topo := n.Topo
	// Find src/dst with a full l-g-l minimal path.
	var src, dst int
	found := false
	for r := 0; r < topo.Routers && !found; r++ {
		for d := 0; d < topo.Routers && !found; d++ {
			if topo.MinimalHops(r, d) == 3 {
				src, dst = topo.NodeID(r, 0), topo.NodeID(d, 0)
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no 3-hop pair found")
	}
	var got *Packet
	n.OnDeliver = func(p *Packet, _ int64) { got = p }
	n.Inject(src, dst)
	n.Run(3000)
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.LocalHops != 2 || got.GlobalHops != 1 || got.TotalHops != 3 {
		t.Fatalf("hops l=%d g=%d total=%d, want 2/1/3", got.LocalHops, got.GlobalHops, got.TotalHops)
	}
}

// TestOccupancyReflectsTraffic checks the occupancy estimate rises when a
// port is loaded and returns to zero after draining.
func TestOccupancyReflectsTraffic(t *testing.T) {
	n := buildSmall(t)
	r0 := n.Routers[0]
	out := n.Topo.MinimalNextPort(0, n.Cfg.Topo.P*1)
	if r0.Occupancy(out) != 0 {
		t.Fatal("initial occupancy nonzero")
	}
	for i := 0; i < 20; i++ {
		n.Inject(0, n.Cfg.Topo.P*1)
		n.Inject(1, n.Cfg.Topo.P*1)
		n.Step()
	}
	if r0.Occupancy(out) == 0 {
		t.Fatal("occupancy did not rise under load")
	}
	n.Drain(20000)
	// Credits may still be in flight right at drain; run a little more.
	n.Run(300)
	if got := r0.Occupancy(out); got != 0 {
		t.Fatalf("occupancy %d after drain, want 0", got)
	}
}

// TestOccupancyCapPrecomputed: the precomputed cap must equal the
// output-buffer plus credit-capacity sum for every port class.
func TestOccupancyCapPrecomputed(t *testing.T) {
	n := buildSmall(t)
	r := n.Routers[0]
	for port := 0; port < r.NumPorts(); port++ {
		want := r.OutFree(port) // full at construction: outFree == outCap
		for vc := 0; vc < r.OutVCs(port); vc++ {
			want += r.Credits(port, vc)
		}
		if got := r.OccupancyCap(port); got != want {
			t.Fatalf("port %d (%v): OccupancyCap %d, want %d", port, r.Kind(port), got, want)
		}
	}
}

// TestOccupancyIncrementalUnderTraffic drives random traffic and lets
// CheckInvariants compare the running occupancy counters against a fresh
// recompute from buffers and credits at every checkpoint, through load,
// drain and the in-flight credit tail.
func TestOccupancyIncrementalUnderTraffic(t *testing.T) {
	n := buildSmall(t)
	rng := newTestRand(11)
	for cycle := 0; cycle < 600; cycle++ {
		for node := 0; node < n.Topo.Nodes; node++ {
			if rng()%5 == 0 {
				dst := int(rng() % uint64(n.Topo.Nodes))
				if dst != node {
					n.Inject(node, dst)
				}
			}
		}
		n.Step()
		if cycle%50 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
	}
	if !n.Drain(20000) {
		t.Fatal("did not drain")
	}
	n.Run(300) // let in-flight credits land
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestECNMarkAtThreshold: marking is a compare at grant — strictly above
// the port's threshold, the granted packet's own reservation counted. A
// grant that leaves occ == markTh does not mark, markTh+1 does; an
// ejection port and a congestion-off build never mark.
func TestECNMarkAtThreshold(t *testing.T) {
	// deliver sends one packet src -> dst through a fresh network (after
	// prep has adjusted it) and returns the mark count it arrived with.
	deliver := func(cfg Config, src, dst int, prep func(n *Network)) int8 {
		t.Helper()
		n, err := Build(cfg, testMin{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if prep != nil {
			prep(n)
		}
		marks := int8(-1)
		n.OnDeliver = func(p *Packet, now int64) { marks = p.ECNMarks }
		if !n.Inject(src, dst) || !n.Drain(1000) {
			t.Fatal("packet not delivered")
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return marks
	}
	on := smallCfg()
	on.Congestion.Enabled = true
	local := on.Topo.P // first node of router 1: one local hop from node 0
	reserved := 2 * int32(on.PacketSize)
	atThreshold := func(th int32) func(n *Network) {
		return func(n *Network) {
			class := n.Routers[0].class(n.Topo.MinimalNextPort(0, local))
			if class.markTh == noMark {
				t.Fatal("congestion-on build left the local class without a mark threshold")
			}
			class.markTh = th
		}
	}
	// The lone packet's grant takes the empty local port to occ = reserved.
	if m := deliver(on, 0, local, atThreshold(reserved)); m != 0 {
		t.Errorf("grant leaving occ == markTh marked the packet %d times", m)
	}
	if m := deliver(on, 0, local, atThreshold(reserved-1)); m != 1 {
		t.Errorf("grant leaving occ == markTh+1 marked the packet %d times, want 1", m)
	}
	// Ejection: even with every other class at a zero threshold the
	// channel keeps noMark, so a same-router transfer (ejection grant
	// only) is never marked, while the local hop at the same setting is.
	zeroTh := func(n *Network) {
		for k := range n.classes {
			if PortKind(k) != Injection {
				n.classes[k].markTh = 0
			}
		}
	}
	if m := deliver(on, 0, 1, func(n *Network) {
		zeroTh(n)
		if th := n.Routers[0].class(n.Topo.MinimalNextPort(0, 1)).markTh; th != noMark {
			t.Fatalf("ejection channel got mark threshold %d", th)
		}
	}); m != 0 {
		t.Errorf("ejection grant marked the packet %d times", m)
	}
	if m := deliver(on, 0, local, zeroTh); m != 1 {
		t.Errorf("local hop at threshold 0 marked the packet %d times, want 1", m)
	}
	// Congestion off: no port class has a threshold, nothing marks.
	if m := deliver(smallCfg(), 0, local, func(n *Network) {
		for k, c := range n.classes {
			if c.markTh != noMark {
				t.Fatalf("congestion-off build: %v ports have mark threshold %d", PortKind(k), c.markTh)
			}
		}
	}); m != 0 {
		t.Errorf("congestion-off build marked the packet %d times", m)
	}
}

// TestCongestionDerivedFromFabric pins the congestion loop's fixed
// parameters at the Tiny, Small and Paper topologies: a marking class's
// threshold is 70 % of its occupancy cap (89 of 128 phits local, 380 of
// 544 global under Table I), the ejection class never marks, a notice
// takes LatencyLocal+LatencyGlobal cycles and a NIC sheds at a quarter
// of its queue, at least one packet.
func TestCongestionDerivedFromFabric(t *testing.T) {
	for _, params := range []topology.Params{{P: 4, A: 4, H: 2}, {P: 4, A: 8, H: 4}, {P: 8, A: 16, H: 8}} {
		cfg := DefaultConfig(params)
		cfg.Congestion.Enabled = true
		n, err := Build(cfg, testMin{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			kind PortKind
			want int32
		}{{Local, 89}, {Global, 380}} {
			occCap := int32(cfg.BufOut + cfg.VCsFor(tc.kind)*cfg.BufFor(tc.kind))
			if c := n.classes[tc.kind]; c.occCap != occCap || c.markTh != occCap*70/100 || c.markTh != tc.want {
				t.Errorf("%+v: %v class occupancy cap %d, mark threshold %d; want %d and %d",
					params, tc.kind, c.occCap, c.markTh, occCap, tc.want)
			}
		}
		if th := n.classes[Injection].markTh; th != noMark {
			t.Errorf("%+v: ejection class mark threshold %d, want noMark", params, th)
		}
		if d := cfg.NotifyDelay(); d != 110 {
			t.Errorf("%+v: notification delay %d, want LatencyLocal+LatencyGlobal = 110", params, d)
		}
		if n.shedCap != 16 {
			t.Errorf("%+v: shed cap %d, want NICQueuePackets/4 = 16", params, n.shedCap)
		}
	}
	cfg := smallCfg()
	cfg.Congestion.Enabled = true
	cfg.NICQueuePackets = 3
	n, err := Build(cfg, testMin{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n.shedCap != 1 {
		t.Errorf("3-packet NIC queue: shed cap %d, want 1", n.shedCap)
	}
}

// TestNoticeBoundsElision: once its marked packet is delivered, a
// congestion notice can be the only work left in the fabric, so the
// clock must stop at its due cycle whether it is stepped or elided:
// OnNotify fires once, for the source node, at delivery +
// LatencyLocal+LatencyGlobal (Config.NotifyDelay) either way.
func TestNoticeBoundsElision(t *testing.T) {
	for _, elide := range []bool{false, true} {
		cfg := smallCfg()
		cfg.Congestion = CongestionConfig{Enabled: true}
		n, err := Build(cfg, testMin{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		n.classes[Local].markTh = 0 // the lone packet's local hop marks
		delivered, notified := int64(-1), []int64(nil)
		n.OnDeliver = func(p *Packet, now int64) {
			if p.ECNMarks == 0 {
				t.Fatalf("elide=%v: the packet arrived unmarked", elide)
			}
			delivered = now
		}
		n.OnNotify = func(node, _ int, now int64) {
			if node != 0 {
				t.Fatalf("elide=%v: notice for node %d, the source is node 0", elide, node)
			}
			notified = append(notified, now)
		}
		if !n.Inject(0, cfg.Topo.P) { // a node of router 1: one local hop
			t.Fatal("inject refused")
		}
		if elide {
			n.Run(1000)
		} else {
			for n.Now() < 1000 {
				n.Step()
			}
		}
		want := delivered + int64(cfg.LatencyLocal+cfg.LatencyGlobal)
		if delivered < 0 || len(notified) != 1 || notified[0] != want {
			t.Fatalf("elide=%v: delivered at %d, notified at %v; want one notice at %d", elide, delivered, notified, want)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeterminism: identical seeds must produce identical delivery
// traces; different seeds should diverge via RNG-dependent decisions
// (testMin has none, so only check equality).
func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		n, err := Build(smallCfg(), testMin{}, 42)
		if err != nil {
			t.Fatal(err)
		}
		var trace []int64
		n.OnDeliver = func(p *Packet, now int64) { trace = append(trace, int64(p.ID)<<20|now) }
		rng := newTestRand(5)
		for cycle := 0; cycle < 300; cycle++ {
			for node := 0; node < n.Topo.Nodes; node++ {
				if rng()%10 == 0 {
					dst := int(rng() % uint64(n.Topo.Nodes))
					if dst != node {
						n.Inject(node, dst)
					}
				}
			}
			n.Step()
		}
		n.Drain(10000)
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

// TestVCTAdmission: with an input buffer sized for exactly one packet
// downstream, a second packet must not be granted until the first's
// credits return.
func TestVCTAdmission(t *testing.T) {
	cfg := smallCfg()
	cfg.BufLocal = cfg.PacketSize // one packet per local VC
	cfg.VCsLocal = 1
	cfg.VCsInjection = 1
	cfg.BufInjection = 32
	n, err := Build(cfg, testMin{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst := n.Cfg.Topo.P * 1
	for i := 0; i < 6; i++ {
		n.Inject(0, dst)
	}
	n.Run(2000)
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !n.Drain(20000) {
		t.Fatal("single-packet buffers deadlocked")
	}
}

func TestDrainReportsStuck(t *testing.T) {
	n := buildSmall(t)
	n.Inject(0, 3)
	if n.Drain(1) {
		t.Fatal("drain claimed success after 1 cycle")
	}
	if !n.Drain(10000) {
		t.Fatal("drain failed with generous budget")
	}
}
