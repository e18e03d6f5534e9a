package router

import (
	"fmt"
	"testing"
)

// equivTrace records one delivery: enough per-packet detail that any
// divergence in routing, timing or ordering between the two step modes
// shows up as a trace mismatch.
type equivTrace struct {
	now  int64
	id   uint64
	src  int32
	dst  int32
	hops int8
}

// runEquiv drives one network with the deterministic xorshift workload
// for `cycles` cycles plus a drain, collecting the delivery trace and
// checking invariants and counters at every checkpoint.
func runEquiv(t *testing.T, cfg Config, fullScan bool, cycles int, rate uint64) ([]equivTrace, *Network) {
	t.Helper()
	return runEquivTo(t, cfg, fullScan, cycles, rate, func(n *Network, node int, x uint64) int {
		return int(x % uint64(n.Topo.Nodes))
	})
}

// runEquivTo is runEquiv with the destination choice as a parameter:
// dest maps a source node and a random draw to a destination node. The
// fullScan run steps every cycle, the drain included, with the
// StepFullScan oracle; the other one with Step, eliding its drain.
func runEquivTo(t *testing.T, cfg Config, fullScan bool, cycles int, rate uint64,
	dest func(n *Network, node int, x uint64) int) ([]equivTrace, *Network) {
	t.Helper()
	n, err := Build(cfg, testMin{}, 99)
	if err != nil {
		t.Fatal(err)
	}
	step, drain := n.Step, n.Drain
	if fullScan {
		step, drain = n.StepFullScan, func(c int64) bool { return drainFullScan(n, c) }
	}
	var trace []equivTrace
	n.OnDeliver = func(p *Packet, now int64) {
		trace = append(trace, equivTrace{now: now, id: p.ID, src: p.Src, dst: p.Dst, hops: p.TotalHops})
	}
	rng := newTestRand(31)
	for cycle := 0; cycle < cycles; cycle++ {
		for node := 0; node < n.Topo.Nodes; node++ {
			if rng()%100 < rate {
				dst := dest(n, node, rng())
				if dst != node {
					n.Inject(node, dst)
				}
			}
		}
		step()
		if cycle%250 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("fullScan=%v cycle %d: %v", fullScan, cycle, err)
			}
		}
	}
	if !drain(1 << 20) {
		t.Fatalf("fullScan=%v: network did not drain (%d in flight)", fullScan, n.InFlight)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("fullScan=%v after drain: %v", fullScan, err)
	}
	return trace, n
}

// drainFullScan is Drain stepped by the oracle: no elision, every cycle
// a StepFullScan.
func drainFullScan(n *Network, maxCycles int64) bool {
	for end := n.now + maxCycles; n.now < end && n.InFlight > 0; {
		n.StepFullScan()
	}
	return n.InFlight == 0
}

// TestActiveSetEquivalence proves the active-set scheduler is
// cycle-for-cycle identical to the original full scan: the same injection
// stream must produce the exact same delivery trace (same packets, same
// hop counts, same delivery cycles, same order) and the same aggregate
// counters. The tight-buffers config forces constant credit blocking, so
// the trace also pins the subtle case of a blocked router being serviced
// again when credits return.
func TestActiveSetEquivalence(t *testing.T) {
	tight := smallCfg()
	tight.BufLocal = tight.PacketSize // one packet per local VC
	tight.BufOut = tight.PacketSize   // one packet per output buffer
	cases := []struct {
		name   string
		cfg    Config
		cycles int
		rate   uint64 // injection permille (per-node percent per cycle)
	}{
		{"default-10pct", smallCfg(), 1500, 10},
		{"default-30pct", smallCfg(), 1000, 30},
		{"tight-buffers", tight, 1500, 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full, nFull := runEquiv(t, tc.cfg, true, tc.cycles, tc.rate)
			act, nAct := runEquiv(t, tc.cfg, false, tc.cycles, tc.rate)
			if nFull.NumGenerated != nAct.NumGenerated || nFull.NumBlocked != nAct.NumBlocked {
				t.Fatalf("generation diverged: full %d/%d vs active %d/%d",
					nFull.NumGenerated, nFull.NumBlocked, nAct.NumGenerated, nAct.NumBlocked)
			}
			if nFull.NumDelivered != nAct.NumDelivered || nFull.DeliveredPhits != nAct.DeliveredPhits {
				t.Fatalf("delivery diverged: full %d (%d phits) vs active %d (%d phits)",
					nFull.NumDelivered, nFull.DeliveredPhits, nAct.NumDelivered, nAct.DeliveredPhits)
			}
			if nFull.NumDelivered == 0 {
				t.Fatal("no traffic delivered")
			}
			if len(full) != len(act) {
				t.Fatalf("trace lengths differ: %d vs %d", len(full), len(act))
			}
			for i := range full {
				if full[i] != act[i] {
					t.Fatalf("traces diverge at delivery %d: full %+v vs active %+v", i, full[i], act[i])
				}
			}
		})
	}
}

// TestAllocationSkipsOnlyNoOpIterations pins stepShard's allocation
// skip — a router whose iteration granted nothing sits out the cycle's
// remaining iterations — from both sides. It must not cost a grant: two
// heads of one router that want the same output need two iterations, and
// still both win in one cycle at Speedup 2 (and not at Speedup 1, so the
// second iteration is what grants the second). And it must skip nothing
// but no-ops: past saturation under ADV+1, where most routers' first
// iteration already grants nothing, the run stays cycle-identical to the
// StepFullScan oracle, which visits every router in every iteration.
func TestAllocationSkipsOnlyNoOpIterations(t *testing.T) {
	for _, speedup := range []int{1, 2} {
		cfg := smallCfg()
		cfg.Speedup = speedup
		n, err := Build(cfg, testMin{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Nodes 0 and 1 sit on router 0; both packets leave it through
		// the local port to router 1.
		p := n.Topo.P
		if !n.Inject(0, p) || !n.Inject(1, p+1) {
			t.Fatal("inject refused")
		}
		n.Step()
		if granted := 2 - n.Routers[0].unroutedHeads.count; granted != speedup {
			t.Fatalf("speedup %d: %d of the two heads granted in one cycle", speedup, granted)
		}
	}

	adv1 := func(n *Network, node int, x uint64) int {
		perGroup := n.Topo.A * n.Topo.P
		g := (n.Topo.GroupOfNode(node) + 1) % n.Topo.Groups
		return g*perGroup + int(x%uint64(perGroup))
	}
	full, nFull := runEquivTo(t, smallCfg(), true, 1500, 40, adv1)
	act, nAct := runEquivTo(t, smallCfg(), false, 1500, 40, adv1)
	if nFull.NumBlocked == 0 {
		t.Fatal("the ADV+1 run never backed up into the NICs: not saturated")
	}
	if nFull.NumGenerated != nAct.NumGenerated || nFull.NumBlocked != nAct.NumBlocked || len(full) != len(act) {
		t.Fatalf("diverged: full %d generated/%d blocked/%d delivered vs active %d/%d/%d",
			nFull.NumGenerated, nFull.NumBlocked, len(full), nAct.NumGenerated, nAct.NumBlocked, len(act))
	}
	for i := range full {
		if full[i] != act[i] {
			t.Fatalf("traces diverge at delivery %d: full %+v vs active %+v", i, full[i], act[i])
		}
	}
}

// TestActiveSetCreditReactivation pins the subtle scheduler case in
// isolation: with single-packet buffers, the second packet's router has
// no allocatable work until the first packet's credits return; if the
// credit event failed to keep the router serviced, the packet would sit
// forever and the drain below would time out.
func TestActiveSetCreditReactivation(t *testing.T) {
	cfg := smallCfg()
	cfg.BufLocal = cfg.PacketSize
	cfg.VCsLocal = 2 // minimum for testMin's two-stage VC ladder
	cfg.BufOut = cfg.PacketSize
	n, err := Build(cfg, testMin{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst := n.Cfg.Topo.P * 1 // node on router 1, one local hop away
	for i := 0; i < 8; i++ {
		if !n.Inject(0, dst) {
			t.Fatal("inject refused")
		}
	}
	if !n.Drain(1 << 16) {
		t.Fatalf("blocked router was never reactivated: %d packets stuck", n.InFlight)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n.NumDelivered != 8 {
		t.Fatalf("delivered %d of 8", n.NumDelivered)
	}
}

// TestStepModesInterleaved alternates StepFullScan and Step in spans of
// 100 cycles: the active sets are maintained at the mutation points
// whichever steps the cycle, so a switch at any cycle must keep the
// simulation consistent. The oracle is sequential: on a two-worker
// network it panics instead of stepping.
func TestStepModesInterleaved(t *testing.T) {
	n := buildSmall(t)
	rng := newTestRand(17)
	for cycle := 0; cycle < 1200; cycle++ {
		for node := 0; node < n.Topo.Nodes; node++ {
			if rng()%100 < 15 {
				dst := int(rng() % uint64(n.Topo.Nodes))
				if dst != node {
					n.Inject(node, dst)
				}
			}
		}
		if (cycle/100)%2 == 0 {
			n.StepFullScan()
		} else {
			n.Step()
		}
		if cycle%200 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
	}
	if !n.Drain(1 << 20) {
		t.Fatalf("did not drain: %d in flight", n.InFlight)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	cfg := smallCfg()
	cfg.Workers = 2
	two, err := Build(cfg, testMin{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("StepFullScan stepped a two-worker network")
		}
	}()
	two.StepFullScan()
}

// packetStructs counts the Packet structs a network has handed out and
// still holds: the packets inside the fabric (in flight but past their
// NIC queue, where a packet is only a record) plus the shards' freelists.
// The unconsumed part of a shard's packet chunk is not among them: those
// structs have never been a packet. Below the freelist cap it rises by
// exactly one per freelist miss, whether or not the miss opened a chunk.
func packetStructs(n *Network) int {
	pop := int(n.InFlight)
	for i := range n.nics {
		pop -= n.nics[i].len()
	}
	for s := range n.shards {
		pop += len(n.shards[s].freePkts)
	}
	return pop
}

// TestPacketFreelistRecycles checks that packets that left the fabric
// are recycled to the shard that will need them again. A saturating
// flood, drained, leaves the freelists holding its peak population; a
// lighter run of the same traffic then makes no new Packet — and,
// sequentially, a Step allocates nothing at all (a forked Step pays its
// channel and worker closures). Every packet crosses from the first
// shard of two to the second, so a freelist that took its packets back
// on the destination's shard would leave the first shard with none.
func TestPacketFreelistRecycles(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := smallCfg()
			cfg.Workers = workers
			n, err := Build(cfg, testMin{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Sources: the first four of nine groups, shard 0 of two.
			srcs := n.Topo.P * n.Topo.A * (n.Topo.Groups / 2)
			if workers > 1 && srcs != int(n.shards[0].nodeHi) {
				t.Fatalf("shard 0 ends at node %d, the sources at node %d", n.shards[0].nodeHi, srcs)
			}
			rng := newTestRand(23)
			cycle := func(rate uint64) {
				for node := 0; node < srcs; node++ {
					if rng()%100 < rate {
						n.Inject(node, srcs+int(rng()%uint64(n.Topo.Nodes-srcs)))
					}
				}
				n.Step()
			}
			backlog := 0
			for range 2000 {
				cycle(10)
			}
			for i := range n.nics {
				backlog += n.nics[i].len()
			}
			if backlog < srcs*cfg.NICQueuePackets/2 {
				t.Fatalf("NIC backlog %d after the flood: it did not saturate", backlog)
			}
			if !n.Drain(1 << 20) {
				t.Fatal("did not drain")
			}
			made := packetStructs(n)
			for range 500 {
				cycle(3)
			}
			if n.InFlight < int64(srcs) {
				t.Fatalf("%d packets in flight: the measured run is not loaded", n.InFlight)
			}
			if workers == 1 {
				if allocs := testing.AllocsPerRun(500, func() { cycle(3) }); allocs != 0 {
					t.Fatalf("a loaded Step allocates %v times after warm-up", allocs)
				}
			}
			if got := packetStructs(n); got != made {
				t.Fatalf("%d Packet structs after the flood, %d after a lighter run: the freelists missed", made, got)
			}
			if !n.Drain(1 << 20) {
				t.Fatal("did not drain")
			}
			if err := n.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Drained, every packet made is on its source's freelist.
			if free := len(n.shards[0].freePkts); free != made || free > maxFreePackets/workers {
				t.Fatalf("%d packets on shard 0's freelist after drain, %d made (cap %d)", free, made, maxFreePackets/workers)
			}
		})
	}
}

// TestNICRecordBecomesThePacketInjected pins the NIC record end to end:
// OnDeliver sees the id, the generation cycle (the cycle of the Inject
// call, not of the drain), the endpoints and the attempt number that
// Inject/InjectRetry were given, through NIC queues that fill four
// times faster than they drain.
func TestNICRecordBecomesThePacketInjected(t *testing.T) {
	n := buildSmall(t)
	type injected struct {
		gen      int64
		src, dst int32
		attempt  int8
	}
	var want []injected // indexed by packet id: ids are handed out in Inject order
	seen := make(map[uint64]bool)
	lagged := 0
	n.OnDeliver = func(p *Packet, now int64) {
		if p.ID >= uint64(len(want)) || seen[p.ID] {
			t.Fatalf("delivered id %d: never injected, or delivered twice", p.ID)
		}
		seen[p.ID] = true
		w := want[p.ID]
		if got := (injected{p.GenTime, p.Src, p.Dst, p.Attempt}); got != w {
			t.Fatalf("packet %d delivered as %+v, injected as %+v", p.ID, got, w)
		}
		if int32(n.Topo.RouterOfNode(int(p.Dst))) != p.DstRouter || p.Size != int32(n.Cfg.PacketSize) {
			t.Fatalf("packet %d: DstRouter %d, Size %d", p.ID, p.DstRouter, p.Size)
		}
	}
	rng := newTestRand(5)
	for cycle := 0; cycle < 120; cycle++ {
		// One packet every other cycle from each of eight nodes; a NIC
		// drains one per PacketSize = 8 cycles.
		for src := 0; src < 8 && cycle%2 == 0; src++ {
			dst := int(rng() % uint64(n.Topo.Nodes))
			if dst == src {
				continue
			}
			w := injected{n.Now(), int32(src), int32(dst), int8(len(want) % 3)}
			if w.attempt == 0 && n.Inject(src, dst) || w.attempt > 0 && n.InjectRetry(src, dst, w.attempt) {
				want = append(want, w)
			}
		}
		n.Step()
		for src := 0; src < 8; src++ {
			lagged = max(lagged, n.NICBacklog(src))
		}
	}
	if lagged < 16 {
		t.Fatalf("deepest NIC backlog %d: drain never lagged inject", lagged)
	}
	if !n.Drain(1 << 20) {
		t.Fatal("did not drain")
	}
	if len(seen) != len(want) || len(want) == 0 {
		t.Fatalf("%d injected, %d delivered", len(want), len(seen))
	}
}

// TestParkedRouterInvariants drives the parking scheduler white-box: a
// burst through single-packet buffers blocks heads on credits, so routers
// must park (leave the route set with unrouted heads), the invariant
// sweep must accept them, every credit return must bring its router
// back, and the sweep must catch a mutation that skips the wake.
func TestParkedRouterInvariants(t *testing.T) {
	cfg := smallCfg()
	cfg.BufLocal = cfg.PacketSize
	cfg.BufOut = cfg.PacketSize
	n, err := Build(cfg, testMin{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst := n.Cfg.Topo.P * 1 // node on router 1, one local hop from router 0
	for i := 0; i < 8; i++ {
		if !n.Inject(0, dst) {
			t.Fatal("inject refused")
		}
	}
	var parked *Router
	for cycle := 0; cycle < 200 && parked == nil; cycle++ {
		n.Step()
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		for _, r := range n.Routers {
			if r.parked {
				parked = r
			}
		}
	}
	if parked == nil {
		t.Fatal("no router ever parked behind single-packet buffers")
	}
	if parked.unroutedHeads.count == 0 || parked.shard.routeActive.has(int32(parked.ID)) {
		t.Fatalf("router %d parked with %d unrouted heads, in route set %v",
			parked.ID, parked.unroutedHeads.count, parked.shard.routeActive.has(int32(parked.ID)))
	}

	// Hand a blocked head the credits and output space it waits for
	// without waking its router — what a mutation point that forgot
	// wake() would do. The sweep must object.
	var held headReq
	for _, rq := range parked.req {
		if rq.valid {
			held = rq
		}
	}
	if !held.valid {
		t.Fatal("parked router holds no stored request")
	}
	o := &parked.out[held.out]
	credits, outFree, occ := o.credits[held.vc], o.outFree, o.occ
	o.credits[held.vc], o.outFree = parked.class(int(held.out)).vcCap, int32(n.Cfg.BufOut)
	o.occ -= (o.credits[held.vc] - credits) + (o.outFree - outFree)
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a parked router whose stored request is grantable")
	}
	o.credits[held.vc], o.outFree, o.occ = credits, outFree, occ

	if !n.Drain(1 << 16) {
		t.Fatalf("parked routers were never woken: %d packets stuck", n.InFlight)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n.NumDelivered != 8 {
		t.Fatalf("delivered %d of 8", n.NumDelivered)
	}
}

// TestStepInlineWhenOneShardBusy: with fewer than two busy shards Step
// runs every shard's sections on the calling goroutine. A lone packet
// crossing from the first shard to the last at four workers is delivered
// at the cycle, with the hop count, a single worker gives it; and such a
// Step allocates nothing, where a forked one pays its channel and its
// worker closures.
func TestStepInlineWhenOneShardBusy(t *testing.T) {
	lone := func(workers int) (*Network, *[]equivTrace, func()) {
		cfg := smallCfg()
		cfg.Workers = workers
		n, err := Build(cfg, testMin{}, 99)
		if err != nil {
			t.Fatal(err)
		}
		trace := new([]equivTrace)
		n.OnDeliver = func(p *Packet, now int64) {
			*trace = append(*trace, equivTrace{now: now, id: p.ID, src: p.Src, dst: p.Dst, hops: p.TotalHops})
		}
		last := n.Topo.Nodes - 1
		if from, to := n.shardOf[n.Topo.RouterOfNode(0)], n.shardOf[n.Topo.RouterOfNode(last)]; (from != to) != (workers > 1) {
			t.Fatalf("workers=%d: the packet's end routers sit on shards %d and %d", workers, from, to)
		}
		return n, trace, func() {
			n.Inject(0, last)
			for n.InFlight > 0 {
				if n.busyShards(n.now&n.mask) > 1 {
					t.Fatalf("workers=%d cycle %d: a lone packet keeps two shards busy", workers, n.now)
				}
				n.Step()
			}
		}
	}
	ref, refTrace, refTrip := lone(1)
	n, trace, trip := lone(4)
	for range 3 {
		refTrip()
		trip()
	}
	if len(*trace) != 3 || fmt.Sprint(*trace) != fmt.Sprint(*refTrace) || n.now != ref.now {
		t.Fatalf("workers=4 delivered %v by cycle %d, workers=1 %v by cycle %d", *trace, n.now, *refTrace, ref.now)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The trips above warmed the freelist, the queues on the path and the
	// trace's backing array.
	*trace = (*trace)[:0]
	if allocs := testing.AllocsPerRun(5, func() { *trace = (*trace)[:0]; trip() }); allocs != 0 {
		t.Fatalf("a trip of inline Steps allocates %v times", allocs)
	}
}
